// {enumerator, name} tables: one table per enum yields both its name
// function and its parser, so the two cannot drift apart.
#ifndef STRATREC_COMMON_ENUM_NAMES_H_
#define STRATREC_COMMON_ENUM_NAMES_H_

#include <cstddef>
#include <optional>
#include <string_view>

namespace stratrec {

/// One row of an enum's name table.
template <typename E>
struct EnumName {
  E value;
  const char* name;
};

/// The name `table` gives `value`, or `fallback` when it lists none.
template <typename E, size_t N>
constexpr const char* NameOf(const EnumName<E> (&table)[N], E value,
                             const char* fallback) {
  for (const EnumName<E>& entry : table) {
    if (entry.value == value) return entry.name;
  }
  return fallback;
}

/// The enumerator `table` names `name`, or nullopt.
template <typename E, size_t N>
constexpr std::optional<E> ParseName(const EnumName<E> (&table)[N],
                                     std::string_view name) {
  for (const EnumName<E>& entry : table) {
    if (name == entry.name) return entry.value;
  }
  return std::nullopt;
}

}  // namespace stratrec

#endif  // STRATREC_COMMON_ENUM_NAMES_H_
