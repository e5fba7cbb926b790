// Immutable text bytes that share ownership of whatever holds them.
//
// A SharedText built from a std::string owns that string. One made by
// alias() points into a buffer some other object owns, such as a
// mapped mpac shard or a snapshots.log read into memory, and keeps
// that owner alive for as long as any copy of the text exists. Copies
// share the bytes, so copying a text never copies text, and the bytes
// never change after construction, so copies may be read from any
// thread.
#pragma once

#include <memory>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>

namespace mpa {

class SharedText {
 public:
  SharedText() = default;

  /// Owns `s`. Implicit, so any std::string can stand where a text is
  /// expected. There is deliberately no constructor from
  /// std::string_view: it would alias whatever the view points into.
  SharedText(std::string s) {
    auto owned = std::make_shared<const std::string>(std::move(s));
    bytes_ = *owned;
    owner_ = std::move(owned);
  }

  /// Text that points at `bytes` and shares ownership of `owner`, which
  /// must hold them.
  static SharedText alias(std::shared_ptr<const void> owner, std::string_view bytes) {
    SharedText t;
    t.owner_ = std::move(owner);
    t.bytes_ = bytes;
    return t;
  }

  operator std::string_view() const noexcept { return bytes_; }
  std::size_t size() const noexcept { return bytes_.size(); }

  friend std::ostream& operator<<(std::ostream& os, const SharedText& t) {
    return os << t.bytes_;
  }

 private:
  std::shared_ptr<const void> owner_;
  std::string_view bytes_;
};

}  // namespace mpa
