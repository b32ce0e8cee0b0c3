#include "history/query_planner.hpp"

#include <algorithm>
#include <limits>

#include "history/history_db.hpp"
#include "support/text.hpp"

namespace herc::history {

using data::InstanceId;

PageCursor PageCursor::top() {
  return PageCursor{std::numeric_limits<std::int64_t>::max(),
                    std::numeric_limits<std::uint32_t>::max()};
}

bool PageCursor::admits(std::int64_t c, std::uint32_t i) const {
  return c < created || (c == created && i < id);
}

std::string PageCursor::encode() const {
  return std::to_string(created) + ":" + std::to_string(id);
}

std::optional<PageCursor> PageCursor::decode(std::string_view s) {
  const std::size_t colon = s.find(':');
  if (colon == std::string_view::npos) return std::nullopt;
  const auto created = support::parse_int<std::int64_t>(s.substr(0, colon));
  const auto id = support::parse_int<std::uint32_t>(s.substr(colon + 1));
  if (!created || !id) return std::nullopt;
  return PageCursor{*created, *id};
}

std::string_view to_string(AccessPath path) {
  switch (path) {
    case AccessPath::kScan:
      return "scan";
    case AccessPath::kType:
      return "type-index";
    case AccessPath::kKeyword:
      return "keyword-index";
    case AccessPath::kUser:
      return "user-index";
    case AccessPath::kDate:
      return "date-index";
    case AccessPath::kUses:
      return "uses-index";
  }
  return "scan";
}

std::string QueryPlan::describe() const {
  return std::string(to_string(path)) + " (~" + std::to_string(estimate) +
         " candidates)";
}

bool matches(const HistoryDb& db, const QueryFilter& filter, InstanceId id) {
  const Instance& inst = db.instance(id);
  if (!inst.ok() && !filter.include_failures) return false;
  if (filter.type.valid() &&
      !db.schema().is_ancestor_or_self(filter.type, inst.type)) {
    return false;
  }
  if (!filter.keyword.empty() &&
      !support::icontains(inst.name, filter.keyword) &&
      !support::icontains(inst.comment, filter.keyword)) {
    return false;
  }
  if (!filter.user.empty() && inst.user != filter.user) return false;
  if (filter.from && inst.created < *filter.from) return false;
  if (filter.to && *filter.to < inst.created) return false;
  if (filter.uses) {
    if (!db.contains(*filter.uses)) return false;
    const PooledDerivation& d = inst.derivation;
    if (d.tool != *filter.uses &&
        std::find(d.inputs.begin(), d.inputs.end(), *filter.uses) ==
            d.inputs.end()) {
      return false;
    }
  }
  return true;
}

QueryPlan plan_query(const HistoryDb& db, const QueryFilter& filter,
                     const SecondaryIndex* index) {
  QueryPlan plan;
  plan.path = AccessPath::kScan;
  plan.estimate = db.size();
  // Forward chaining is indexed inside the database itself (`used_by`),
  // so the `uses` path needs no secondary index at all.
  if (filter.uses && db.contains(*filter.uses)) {
    const std::size_t n = db.used_by(*filter.uses).size();
    if (n < plan.estimate) {
      plan.path = AccessPath::kUses;
      plan.estimate = n;
    }
  }
  if (index != nullptr) {
    struct Option {
      AccessPath path;
      bool present;
    };
    const Option options[] = {
        {AccessPath::kType, filter.type.valid()},
        {AccessPath::kKeyword, !filter.keyword.empty()},
        {AccessPath::kUser, !filter.user.empty()},
        {AccessPath::kDate,
         filter.from.has_value() || filter.to.has_value()},
    };
    for (const Option& opt : options) {
      if (!opt.present) continue;
      const std::optional<std::size_t> est = index->estimate(filter, opt.path);
      if (est && *est < plan.estimate) {
        plan.path = opt.path;
        plan.estimate = *est;
      }
    }
  }
  return plan;
}

namespace {

/// Table walk in listing order: id-desc, which equals (created, id)-desc
/// because ids are assigned in creation order under a monotone clock.
std::vector<InstanceId> scan_candidates(const HistoryDb& db,
                                        const PageCursor& cursor,
                                        std::size_t limit) {
  std::vector<InstanceId> out;
  auto next = static_cast<std::uint64_t>(
      std::min<std::uint64_t>(cursor.id, db.size()));
  while (next > 0 && out.size() < limit) {
    --next;
    out.push_back(InstanceId(static_cast<std::uint32_t>(next)));
  }
  return out;
}

std::vector<InstanceId> uses_candidates(const HistoryDb& db,
                                        const QueryFilter& filter,
                                        const PageCursor& cursor,
                                        std::size_t limit) {
  const std::vector<InstanceId>& deps = db.used_by(*filter.uses);  // ascending
  std::vector<InstanceId> out;
  auto it = std::lower_bound(deps.begin(), deps.end(), InstanceId(cursor.id));
  while (it != deps.begin() && out.size() < limit) {
    --it;
    out.push_back(*it);
  }
  return out;
}

}  // namespace

QueryPage run_page(const HistoryDb& db, const QueryFilter& filter,
                   const SecondaryIndex* index, std::size_t limit,
                   const std::optional<PageCursor>& after) {
  QueryPage page;
  page.plan = plan_query(db, filter, index);
  if (limit == 0) {
    page.next = after;
    return page;
  }
  PageCursor cursor = after.value_or(PageCursor::top());
  const std::size_t chunk =
      std::min<std::size_t>(std::max<std::size_t>(limit, 64), 4096);
  bool filled = false;
  for (;;) {
    std::vector<InstanceId> cand;
    switch (page.plan.path) {
      case AccessPath::kScan:
        cand = scan_candidates(db, cursor, chunk);
        break;
      case AccessPath::kUses:
        cand = uses_candidates(db, filter, cursor, chunk);
        break;
      default:
        cand = index->candidates(filter, page.plan.path, cursor, chunk);
        break;
    }
    const bool exhausted = cand.size() < chunk;
    for (const InstanceId id : cand) {
      ++page.candidates_examined;
      const Instance& inst = db.instance(id);
      // Advance past every *examined* candidate, matching or not, so the
      // next page resumes exactly where verification stopped.
      cursor.created = inst.created.micros();
      cursor.id = id.value();
      if (matches(db, filter, id)) {
        page.ids.push_back(id);
        if (page.ids.size() >= limit) {
          filled = true;
          break;
        }
      }
    }
    if (filled) {
      page.next = cursor;
      break;
    }
    if (exhausted) break;
  }
  return page;
}

}  // namespace herc::history
