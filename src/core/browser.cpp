#include "core/browser.hpp"
#include "support/text.hpp"

#include <limits>

namespace herc::core {

using data::InstanceId;

InstanceBrowser::InstanceBrowser(const history::HistoryDb& db,
                                 schema::EntityTypeId type,
                                 const history::SecondaryIndex* index)
    : db_(&db), type_(type), index_(index) {}

history::QueryFilter InstanceBrowser::to_query(
    const BrowserFilter& filter) const {
  history::QueryFilter q;
  q.type = type_;
  q.keyword = filter.keyword;
  q.user = filter.user;
  q.from = filter.from;
  q.to = filter.to;
  q.uses = filter.uses;
  return q;
}

BrowserRow InstanceBrowser::make_row(InstanceId id) const {
  const history::Instance& inst = db_->instance(id);
  BrowserRow row;
  row.id = id;
  row.type_name = db_->schema().entity_name(inst.type);
  row.name = inst.name;
  row.user = inst.user;
  row.created = inst.created;
  row.comment = inst.comment;
  row.version = inst.version;
  row.superseded = db_->superseded(id);
  return row;
}

std::vector<BrowserRow> InstanceBrowser::rows(
    const BrowserFilter& filter) const {
  const history::QueryPage page =
      history::run_page(*db_, to_query(filter), index_,
                        std::numeric_limits<std::size_t>::max());
  std::vector<BrowserRow> out;
  out.reserve(page.ids.size());
  for (const InstanceId id : page.ids) out.push_back(make_row(id));
  return out;
}

BrowserPage InstanceBrowser::page(
    const BrowserFilter& filter, std::size_t limit,
    const std::optional<history::PageCursor>& after) const {
  const history::QueryPage executed =
      history::run_page(*db_, to_query(filter), index_, limit, after);
  BrowserPage out;
  out.rows.reserve(executed.ids.size());
  for (const InstanceId id : executed.ids) out.rows.push_back(make_row(id));
  out.next = executed.next;
  out.plan = executed.plan.describe();
  return out;
}

std::vector<InstanceId> InstanceBrowser::select(
    const BrowserFilter& filter) const {
  const history::QueryPage page =
      history::run_page(*db_, to_query(filter), index_,
                        std::numeric_limits<std::size_t>::max());
  return page.ids;
}

std::string InstanceBrowser::render_rows(
    const std::vector<BrowserRow>& rows) const {
  std::string out = "  user          date                        name\n";
  for (const BrowserRow& row : rows) {
    std::string line = "  ";
    std::string user = row.user;
    user.resize(14, ' ');
    line += user;
    line += row.created.to_string();
    line += "  ";
    line += row.name.empty() ? support::numbered("i", row.id.value())
                             : row.name;
    if (row.version > 1) {
      line += support::numbered(" (v", row.version);
      line += ')';
    }
    if (row.superseded) line += " [superseded]";
    if (row.type_name != db_->schema().entity_name(type_)) {
      line += " <" + row.type_name + ">";
    }
    out += line + "\n";
  }
  return out;
}

std::string InstanceBrowser::render(const BrowserFilter& filter) const {
  return "Browser: " + db_->schema().entity_name(type_) + "\n" +
         render_rows(rows(filter));
}

std::string InstanceBrowser::render_page(const BrowserPage& page) const {
  std::string out = "Browser: " + db_->schema().entity_name(type_) +
                    " [" + page.plan + "]\n";
  out += render_rows(page.rows);
  if (page.next) out += "  next: " + page.next->encode() + "\n";
  return out;
}

}  // namespace herc::core
