#include "circuit/vcd.hpp"

#include <algorithm>
#include <map>

namespace herc::circuit {

namespace {

char vcd_value(Level l) {
  switch (l) {
    case Level::kLow: return '0';
    case Level::kHigh: return '1';
    case Level::kX: return 'x';
  }
  return 'x';
}

/// Short identifier codes: '!', '"', '#', ... per VCD convention.
std::string id_code(std::size_t index) {
  std::string code;
  do {
    code += static_cast<char>('!' + index % 94);
    index /= 94;
  } while (index != 0);
  return code;
}

}  // namespace

std::string to_vcd(const SimResult& result, const VcdOptions& options) {
  std::string out;
  out += "$date reproduced $end\n";
  out += "$version hercules switch-level simulator $end\n";
  out += "$timescale " + options.timescale + " $end\n";
  out += "$scope module " + options.module + " $end\n";
  std::vector<std::string> codes;
  for (std::size_t i = 0; i < result.waves.size(); ++i) {
    codes.push_back(id_code(i));
    out += "$var wire 1 " + codes[i] + " " + result.waves[i].net + " $end\n";
  }
  out += "$upscope $end\n$enddefinitions $end\n";

  // Merge all change points into one time-ordered stream.
  std::map<std::int64_t, std::vector<std::pair<std::size_t, Level>>>
      by_time;
  for (std::size_t i = 0; i < result.waves.size(); ++i) {
    for (const WavePoint& p : result.waves[i].points) {
      by_time[p.time_ps].emplace_back(i, p.level);
    }
  }
  // Initial values at time 0 in $dumpvars (default x when unknown).
  out += "$dumpvars\n";
  for (std::size_t i = 0; i < result.waves.size(); ++i) {
    const Level initial = result.waves[i].points.empty()
                              ? Level::kX
                              : result.waves[i].points.front().level;
    out += vcd_value(initial);
    out += codes[i];
    out += "\n";
  }
  out += "$end\n";
  for (const auto& [time, changes] : by_time) {
    if (time == 0) continue;  // covered by $dumpvars
    out += '#';
    out += std::to_string(time);
    out += '\n';
    for (const auto& [index, level] : changes) {
      out += vcd_value(level);
      out += codes[index];
      out += "\n";
    }
  }
  return out;
}

}  // namespace herc::circuit
