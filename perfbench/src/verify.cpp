#include "verify.hpp"

#include <unordered_map>

#include "history/query_planner.hpp"
#include "storage/fsck.hpp"

namespace perfbench {

using herc::data::InstanceId;

void check_fsck(const std::string& dir, CheckReport& report) {
  const herc::storage::FsckReport fsck = herc::storage::fsck_store(dir);
  if (fsck.exit_code() != 0) {
    report.failures.push_back("fsck exit " +
                              std::to_string(fsck.exit_code()) + ":\n" +
                              fsck.render());
  }
}

namespace {

void check_imports(const herc::history::HistoryDb& db, const LoadResult& load,
                   CheckReport& report) {
  std::unordered_map<std::string, std::size_t> expected;
  for (const ClientLog& c : load.clients) {
    for (const auto& [entity, name] : c.imports) ++expected[entity + ' ' + name];
  }
  std::unordered_map<std::string, std::size_t> found;
  for (std::size_t i = 0; i < db.size(); ++i) {
    const herc::history::Instance& inst =
        db.instance(InstanceId(static_cast<std::uint32_t>(i)));
    if (!inst.ok() || !inst.derivation.is_import()) continue;
    const std::string key = db.schema().entity_name(inst.type) + ' ' +
                            inst.name;
    if (expected.contains(key)) ++found[key];
  }
  for (const auto& [key, count] : expected) {
    report.imports += count;
    if (found[key] != count) {
      report.failures.push_back("import '" + key + "' acknowledged " +
                                std::to_string(count) + " time(s), stored " +
                                std::to_string(found[key]));
    }
  }
}

void check_pages(herc::core::DesignSession& session, const LoadResult& load,
                 CheckReport& report) {
  const herc::history::HistoryDb& db = session.db();
  for (const ClientLog& c : load.clients) {
    for (const BrowseSpec& spec : c.browse_sample) {
      const herc::history::QueryFilter filter = spec.filter(session.schema());
      const herc::history::QueryPage indexed =
          herc::history::run_page(db, filter, session.indexes(), spec.limit);
      const herc::history::QueryPage scanned =
          herc::history::run_page(db, filter, nullptr, spec.limit);
      ++report.pages;
      if (indexed.ids != scanned.ids) {
        report.failures.push_back("'" + spec.line() +
                                  "': indexed page differs from the scan");
      }
    }
  }
}

void check_runs(const herc::core::DesignSession& session,
                const LoadResult& load, CheckReport& report) {
  const herc::history::HistoryDb& db = session.db();
  const auto perf = session.schema().require("Performance");
  std::size_t replies = 0;
  for (const ClientLog& c : load.clients) {
    for (const std::string& out : c.run_outputs) {
      ++replies;
      const std::size_t at = out.find("  produced i");
      bool ok = at != std::string::npos;
      if (ok) {
        const InstanceId id(static_cast<std::uint32_t>(
            std::stoul(out.substr(at + 12))));
        ok = db.contains(id) && db.instance(id).ok() &&
             db.instance(id).type == perf;
      }
      if (!ok) report.failures.push_back("run without a Performance: " + out);
    }
  }
  std::size_t complete = 0;
  for (const herc::history::RunRecord& run : db.runs()) {
    complete += run.outcome == "complete" ? 1 : 0;
  }
  report.runs = replies;
  if (db.runs().size() != replies || complete != replies) {
    report.failures.push_back(
        std::to_string(replies) + " run(s) acknowledged, " +
        std::to_string(db.runs().size()) + " recorded, " +
        std::to_string(complete) + " complete");
  }
}

}  // namespace

void check_session(herc::core::DesignSession& session, const LoadResult& load,
                   CheckReport& report) {
  check_imports(session.db(), load, report);
  check_pages(session, load, report);
  check_runs(session, load, report);
}

}  // namespace perfbench
