#include "learn/decision_tree.hpp"

#include <algorithm>
#include <cmath>
#include <sstream>
#include <thread>

#include "util/error.hpp"
#include "util/parallel.hpp"

namespace mpa {
namespace {

/// A split holding at least this share of the fit's rows, and at
/// least kFanOutRows of them, grows its children as pool tasks.
constexpr double kFanOutShare = 0.125;
constexpr std::size_t kFanOutRows = 512;
/// A branch of a fanned-out split with at least this many rows is a
/// task of its own; the smaller ones share one task.
constexpr std::size_t kTaskRows = 128;

double entropy_from_weights(std::span<const double> class_w, double total) {
  if (total <= 0) return 0;
  double h = 0;
  for (double w : class_w) {
    if (w <= 0) continue;
    const double p = w / total;
    h -= p * std::log2(p);
  }
  return h;
}

}  // namespace

/// What every node of one fit reads.
struct DecisionTree::Grower {
  const Dataset& data;
  const TreeOptions& opts;
  double total_weight = 0;
  std::vector<int>* row_labels = nullptr;  ///< Leaf label per training row.
  ThreadPool* pool = nullptr;
  std::size_t fan_out_rows = 0;  ///< Rows from which a split's children are tasks.
};

/// Buffers one fit (or one of its subtree tasks) reuses at every node.
/// The split-search histograms are live only while a node picks its
/// split and the scatter buffer only while it partitions its rows, so
/// nothing here is held across the recursion.
struct DecisionTree::Scratch {
  std::vector<double> class_w;         ///< Node weight per class.
  std::vector<std::size_t> features;   ///< Unused features, ascending.
  std::vector<double> bin_w;           ///< [feature slot][bin] weight.
  std::vector<double> bin_class_w;     ///< [feature slot][bin][class] weight.
  std::vector<std::size_t> scattered;  ///< Partition output.
};

DecisionTree DecisionTree::fit(const Dataset& data, const TreeOptions& opts,
                               std::vector<int>* row_labels, ThreadPool* pool) {
  data.require_fit_input("DecisionTree::fit");
  return grow(data, opts, row_labels, pool);
}

DecisionTree DecisionTree::grow(const Dataset& data, const TreeOptions& opts,
                                std::vector<int>* row_labels, ThreadPool* pool) {
  const auto share =
      static_cast<std::size_t>(std::ceil(kFanOutShare * static_cast<double>(data.size())));
  const Grower g{data, opts, data.total_weight(), row_labels, pool, std::max(share, kFanOutRows)};
  DecisionTree tree;
  std::vector<std::size_t> rows(data.size());
  for (std::size_t i = 0; i < rows.size(); ++i) rows[i] = i;
  std::vector<bool> used(data.num_features(), false);
  Scratch scratch;
  if (row_labels) row_labels->assign(data.size(), 0);
  tree.root_ = tree.build(g, rows, used, 0, scratch);
  return tree;
}

int DecisionTree::splice(DecisionTree&& subtree) {
  const int root = static_cast<int>(nodes_.size());
  for (Node& node : subtree.nodes_) {
    for (int& child : node.children) child += root;
    nodes_.push_back(std::move(node));
  }
  return root;
}

int DecisionTree::build(const Grower& g, std::span<std::size_t> rows, std::vector<bool>& used,
                        int depth, Scratch& scratch) {
  const Dataset& data = g.data;
  const TreeOptions& opts = g.opts;
  const auto bins = static_cast<std::size_t>(data.feature_bins);
  const auto classes = static_cast<std::size_t>(data.num_classes);

  // Class distribution at this node.
  std::vector<double>& class_w = scratch.class_w;
  class_w.assign(classes, 0.0);
  double node_weight = 0;
  for (std::size_t i : rows) {
    class_w[static_cast<std::size_t>(data.y[i])] += data.w[i];
    node_weight += data.w[i];
  }
  const int majority =
      static_cast<int>(std::max_element(class_w.begin(), class_w.end()) - class_w.begin());

  Node node;
  node.label = majority;

  const bool pure = class_w[static_cast<std::size_t>(majority)] >= node_weight - 1e-12;
  const bool too_small = node_weight < opts.min_weight_frac * g.total_weight;
  const bool too_deep = opts.max_depth > 0 && depth >= opts.max_depth;
  std::vector<std::size_t>& features = scratch.features;
  features.clear();
  for (std::size_t f = 0; f < used.size(); ++f)
    if (!used[f]) features.push_back(f);

  if (!pure && !too_small && !too_deep && !features.empty() && rows.size() >= 2) {
    // Pick the best split by gain ratio. One row-major pass fills every
    // unused feature's histogram; each cell still adds its rows' weights
    // in row order.
    const double parent_h = entropy_from_weights(class_w, node_weight);
    const std::size_t slots = features.size();
    std::vector<double>& bin_w = scratch.bin_w;
    std::vector<double>& bin_class_w = scratch.bin_class_w;
    bin_w.assign(slots * bins, 0.0);
    bin_class_w.assign(slots * bins * classes, 0.0);
    for (std::size_t i : rows) {
      const std::span<const int> x = data.x[i];
      const double wi = data.w[i];
      const auto yi = static_cast<std::size_t>(data.y[i]);
      for (std::size_t s = 0; s < slots; ++s) {
        const std::size_t cell = s * bins + static_cast<std::size_t>(x[features[s]]);
        bin_w[cell] += wi;
        bin_class_w[cell * classes + yi] += wi;
      }
    }

    int best_feature = -1;
    double best_score = 1e-12;  // require strictly positive gain
    for (std::size_t s = 0; s < slots; ++s) {  // ascending feature order
      double cond_h = 0, split_info = 0;
      int populated = 0;
      for (std::size_t b = 0; b < bins; ++b) {
        const std::size_t cell = s * bins + b;
        const double wb = bin_w[cell];
        if (wb <= 0) continue;
        ++populated;
        const double p = wb / node_weight;
        const std::span<const double> cell_class_w(bin_class_w.data() + cell * classes, classes);
        cond_h += p * entropy_from_weights(cell_class_w, wb);
        split_info -= p * std::log2(p);
      }
      if (populated < 2) continue;  // feature is constant here
      const double gain = parent_h - cond_h;
      const double score = split_info > 1e-9 ? gain / split_info : 0;
      if (score > best_score) {
        best_score = score;
        best_feature = static_cast<int>(features[s]);
      }
    }

    if (best_feature >= 0) {
      node.feature = best_feature;
      const int node_index = static_cast<int>(nodes_.size());
      nodes_.push_back(node);  // placeholder; children filled below

      // Partition rows by bin value of the chosen feature: a stable
      // counting sort, so each child sees its rows in this node's
      // order. After the scatter, bin b's rows end at bounds[b].
      const auto bin_of = [&](std::size_t i) {
        return static_cast<std::size_t>(data.x[i][static_cast<std::size_t>(best_feature)]);
      };
      std::vector<std::size_t> bounds(bins + 1, 0);
      for (std::size_t i : rows) ++bounds[bin_of(i) + 1];
      for (std::size_t b = 0; b < bins; ++b) bounds[b + 1] += bounds[b];
      std::vector<std::size_t>& scattered = scratch.scattered;
      scattered.resize(rows.size());
      for (std::size_t i : rows) scattered[bounds[bin_of(i)]++] = i;
      std::copy(scattered.begin(), scattered.end(), rows.begin());

      used[static_cast<std::size_t>(best_feature)] = true;
      const auto branch = [&](std::size_t b) {
        const std::size_t begin = b == 0 ? 0 : bounds[b - 1];
        return rows.subspan(begin, bounds[b] - begin);
      };
      // Large enough: the branches grow as tasks into trees of their
      // own, one task per branch of at least kTaskRows rows and one for
      // all the smaller ones. The subtrees are spliced in below in bin
      // order, where the serial recursion would have put their nodes.
      std::vector<std::size_t> large;  // branches with a task of their own
      bool small = false;
      if (g.pool != nullptr && rows.size() >= g.fan_out_rows) {
        for (std::size_t b = 0; b < bins; ++b) {
          if (branch(b).size() >= kTaskRows)
            large.push_back(b);
          else
            small = small || !branch(b).empty();
        }
      }
      std::vector<DecisionTree> subtrees;
      if (!large.empty()) {
        subtrees.resize(bins);
        // A task on this thread runs while this node waits in
        // parallel_for, when no node of this fit's serial recursion
        // holds `scratch` or `used`, so it borrows them; a task on
        // another thread gets its own scratch and copy of `used`.
        const std::thread::id caller = std::this_thread::get_id();
        const std::vector<bool> split_used = used;
        parallel_for(g.pool, large.size() + (small ? 1 : 0), [&](std::size_t t) {
          const bool borrow = std::this_thread::get_id() == caller;
          std::vector<bool> own_used = borrow ? std::vector<bool>{} : split_used;
          Scratch own_scratch;
          std::vector<bool>& task_used = borrow ? used : own_used;
          Scratch& task_scratch = borrow ? scratch : own_scratch;
          const auto grow_branch = [&](std::size_t b) {
            DecisionTree subtree;  // moved in once: the slots share cache lines
            subtree.build(g, branch(b), task_used, depth + 1, task_scratch);
            subtrees[b] = std::move(subtree);
          };
          if (t < large.size()) {
            grow_branch(large[t]);
            return;
          }
          for (std::size_t b = 0; b < bins; ++b)
            if (!branch(b).empty() && branch(b).size() < kTaskRows) grow_branch(b);
        });
      }
      std::vector<int> children(bins, -1);
      for (std::size_t b = 0; b < bins; ++b) {
        if (branch(b).empty()) {
          // Empty branch: leaf with the parent's majority class.
          Node leaf;
          leaf.label = majority;
          children[b] = static_cast<int>(nodes_.size());
          nodes_.push_back(leaf);
        } else if (!subtrees.empty()) {
          children[b] = splice(std::move(subtrees[b]));
        } else {
          children[b] = build(g, branch(b), used, depth + 1, scratch);
        }
      }
      used[static_cast<std::size_t>(best_feature)] = false;
      nodes_[static_cast<std::size_t>(node_index)].children = std::move(children);
      return node_index;
    }
  }

  // Leaf.
  if (g.row_labels)
    for (std::size_t i : rows) (*g.row_labels)[i] = node.label;
  nodes_.push_back(node);
  return static_cast<int>(nodes_.size()) - 1;
}

int DecisionTree::predict(std::span<const int> x) const {
  require(root_ >= 0, "DecisionTree::predict: tree not fitted");
  const Node* n = &nodes_[static_cast<std::size_t>(root_)];
  while (n->feature >= 0) {
    const auto f = static_cast<std::size_t>(n->feature);
    require(f < x.size(), "DecisionTree::predict: feature vector too short");
    auto b = static_cast<std::size_t>(x[f]);
    if (b >= n->children.size()) b = n->children.size() - 1;  // clamp stray bins
    n = &nodes_[static_cast<std::size_t>(n->children[b])];
  }
  return n->label;
}

std::size_t DecisionTree::leaf_count() const {
  std::size_t c = 0;
  for (const auto& n : nodes_)
    if (n.feature < 0) ++c;
  return c;
}

int DecisionTree::depth() const {
  if (root_ < 0) return 0;
  // Iterative DFS carrying depth.
  int max_depth = 0;
  std::vector<std::pair<int, int>> stack{{root_, 0}};
  while (!stack.empty()) {
    const auto [idx, d] = stack.back();
    stack.pop_back();
    max_depth = std::max(max_depth, d);
    const Node& n = nodes_[static_cast<std::size_t>(idx)];
    for (int c : n.children) stack.emplace_back(c, d + 1);
  }
  return max_depth;
}

int DecisionTree::root_feature() const {
  return root_ < 0 ? -1 : nodes_[static_cast<std::size_t>(root_)].feature;
}

std::vector<DecisionTree::Rule> DecisionTree::paths_to(int label) const {
  std::vector<Rule> out;
  if (root_ < 0) return out;
  struct Frame {
    int idx;
    std::vector<std::pair<int, int>> conditions;
  };
  std::vector<Frame> stack{{root_, {}}};
  while (!stack.empty()) {
    Frame fr = std::move(stack.back());
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(fr.idx)];
    if (n.feature < 0) {
      if (n.label == label) out.push_back(Rule{std::move(fr.conditions), n.label});
      continue;
    }
    for (std::size_t b = 0; b < n.children.size(); ++b) {
      Frame child{n.children[b], fr.conditions};
      child.conditions.emplace_back(n.feature, static_cast<int>(b));
      stack.push_back(std::move(child));
    }
  }
  std::sort(out.begin(), out.end(), [](const Rule& a, const Rule& b) {
    return a.conditions.size() < b.conditions.size();
  });
  return out;
}

std::string DecisionTree::format_rule(const Rule& rule,
                                      std::span<const std::string> feature_names,
                                      std::span<const std::string> class_names) {
  static const char* kBinNames[] = {"very low", "low", "medium", "high", "very high"};
  std::string out;
  for (std::size_t i = 0; i < rule.conditions.size(); ++i) {
    if (i) out += " AND ";
    const auto [feature, bin] = rule.conditions[i];
    out += feature_names[static_cast<std::size_t>(feature)];
    out += '=';
    out += bin < 5 ? kBinNames[bin] : std::to_string(bin).c_str();
  }
  out += " -> ";
  out += class_names[static_cast<std::size_t>(rule.label)];
  return out;
}

std::string DecisionTree::describe(std::span<const std::string> feature_names,
                                   std::span<const std::string> class_names,
                                   int max_depth) const {
  std::ostringstream os;
  if (root_ < 0) return "<empty tree>\n";
  // DFS with explicit stack of (node, depth, branch label).
  struct Frame {
    int idx;
    int depth;
    std::string branch;
  };
  std::vector<Frame> stack{{root_, 0, ""}};
  while (!stack.empty()) {
    const Frame fr = stack.back();
    stack.pop_back();
    const Node& n = nodes_[static_cast<std::size_t>(fr.idx)];
    os << std::string(static_cast<std::size_t>(fr.depth) * 2, ' ');
    if (!fr.branch.empty()) os << "[" << fr.branch << "] ";
    if (n.feature < 0) {
      os << "-> " << class_names[static_cast<std::size_t>(n.label)] << '\n';
      continue;
    }
    os << feature_names[static_cast<std::size_t>(n.feature)];
    if (fr.depth + 1 > max_depth) {
      os << " ...\n";
      continue;
    }
    os << '\n';
    static const char* kBinNames[] = {"very low", "low", "medium", "high", "very high"};
    for (std::size_t b = n.children.size(); b-- > 0;) {
      const std::string label =
          n.children.size() == 5 ? kBinNames[b] : ("bin " + std::to_string(b));
      stack.push_back(Frame{n.children[b], fr.depth + 1, label});
    }
  }
  return os.str();
}

}  // namespace mpa
