#include "history/text_pool.hpp"

namespace herc::history {

Text TextPool::text(std::string_view text) {
  if (text.empty()) return Text();
  auto it = texts_.find(text);
  if (it == texts_.end()) it = texts_.emplace(text).first;
  return Text(&*it);
}

RoleList TextPool::roles(const std::vector<std::string>& roles) {
  if (roles.empty()) return RoleList();
  auto it = role_lists_.find(roles);
  if (it == role_lists_.end()) it = role_lists_.insert(roles).first;
  return RoleList(&*it);
}

std::size_t TextPool::RolesHash::operator()(
    const std::vector<std::string>& roles) const {
  std::size_t h = roles.size();
  for (const std::string& role : roles) {
    h = h * 31 + std::hash<std::string>{}(role);
  }
  return h;
}

}  // namespace herc::history
