#include "analyze/diagnostic.hpp"

#include <algorithm>
#include <sstream>
#include <tuple>
#include <vector>

#include "support/text.hpp"

namespace herc::analyze {

void LintReport::add(std::string code, Severity severity, std::string location,
                     std::string message, std::string fixit) {
  diagnostics_.push_back(Diagnostic{std::move(code), severity,
                                    std::move(location), std::move(message),
                                    std::move(fixit)});
}

void LintReport::merge(const LintReport& other) {
  diagnostics_.insert(diagnostics_.end(), other.diagnostics_.begin(),
                      other.diagnostics_.end());
}

Severity LintReport::severity() const {
  Severity worst = Severity::kClean;
  for (const Diagnostic& d : diagnostics_) {
    worst = support::worse(worst, d.severity);
  }
  return worst;
}

bool LintReport::has(std::string_view code) const {
  for (const Diagnostic& d : diagnostics_) {
    if (d.code == code) return true;
  }
  return false;
}

std::size_t LintReport::count(Severity severity) const {
  std::size_t n = 0;
  for (const Diagnostic& d : diagnostics_) {
    if (d.severity == severity) ++n;
  }
  return n;
}

std::string LintReport::render() const {
  std::ostringstream out;
  out << "lint " << subject_ << "\n";
  for (const Diagnostic& d : diagnostics_) {
    out << "  " << support::to_string(d.severity) << " " << d.code << " "
        << d.location << ": " << d.message << "\n";
    if (!d.fixit.empty()) out << "    fix: " << d.fixit << "\n";
  }
  const Severity worst = severity();
  out << "verdict: "
      << (worst == Severity::kClean     ? "CLEAN"
          : worst == Severity::kWarning ? "WARNINGS"
                                        : "ERRORS")
      << " (" << count(Severity::kError) << " error(s), "
      << count(Severity::kWarning) << " warning(s))\n";
  return out.str();
}

std::string LintReport::render_json() const {
  // Machine-readable output is sorted so diffs and golden files are stable
  // no matter which order the lint passes emitted their findings in.  The
  // human rendering above keeps emission order, which follows pass order
  // and reads more naturally.
  std::vector<Diagnostic> sorted = diagnostics_;
  std::sort(sorted.begin(), sorted.end(),
            [](const Diagnostic& a, const Diagnostic& b) {
              return std::tie(a.code, a.location, a.message, a.severity) <
                     std::tie(b.code, b.location, b.message, b.severity);
            });
  std::ostringstream out;
  out << "{\"subject\":\"" << support::json_escape(subject_) << "\",\"severity\":\""
      << support::to_string(severity()) << "\",\"exit_code\":" << exit_code()
      << ",\"diagnostics\":[";
  bool first = true;
  for (const Diagnostic& d : sorted) {
    if (!first) out << ",";
    first = false;
    out << "{\"code\":\"" << support::json_escape(d.code) << "\",\"severity\":\""
        << support::to_string(d.severity) << "\",\"location\":\""
        << support::json_escape(d.location) << "\",\"message\":\""
        << support::json_escape(d.message) << "\"";
    if (!d.fixit.empty()) {
      out << ",\"fixit\":\"" << support::json_escape(d.fixit) << "\"";
    }
    out << "}";
  }
  out << "]}\n";
  return out.str();
}

}  // namespace herc::analyze
