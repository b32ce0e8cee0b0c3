#include "history/text_pool.hpp"

namespace herc::history {

namespace {

template <class Roles>
std::size_t hash_roles(const Roles& roles) {
  std::size_t h = roles.size();
  for (const std::string_view role : roles) {
    h = h * 31 + std::hash<std::string_view>{}(role);
  }
  return h;
}

}  // namespace

Text TextPool::text(std::string_view text) {
  if (text.empty()) return Text();
  auto it = texts_.find(text);
  if (it == texts_.end()) it = texts_.emplace(text).first;
  return Text(&*it);
}

RoleList TextPool::roles(std::span<const std::string_view> roles) {
  if (roles.empty()) return RoleList();
  auto it = role_lists_.find(roles);
  if (it == role_lists_.end()) {
    it = role_lists_.emplace(roles.begin(), roles.end()).first;
  }
  return RoleList(&*it);
}

std::size_t TextPool::RolesHash::operator()(
    const std::vector<std::string>& roles) const {
  return hash_roles(roles);
}

std::size_t TextPool::RolesHash::operator()(
    std::span<const std::string_view> roles) const {
  return hash_roles(roles);
}

}  // namespace herc::history
