#include "circuit/sim.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <unordered_map>

#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::circuit {

using support::ExecError;
using support::ParseError;

namespace {

/// Drive strengths of the relaxation lattice.
enum Strength : int {
  kCharged = 1,   ///< retained charge (previous value)
  kWeak = 2,      ///< reached through a weak (narrow) channel
  kResistive = 3, ///< reached through a channel or resistor
  kDriven = 4,    ///< rail or input
};

/// MOS devices narrower than this conduct at `kWeak` strength, so ratioed
/// structures (latch feedback inverters) lose against full-strength paths
/// instead of resolving to X.
constexpr double kWeakWidth = 0.5;

struct Element {
  enum Kind { kNmosEl, kPmosEl, kResEl } kind;
  std::size_t gate = 0;  ///< net index (MOS only)
  std::size_t a = 0;
  std::size_t b = 0;
  bool weak = false;
};

double parse_double_kv(const std::string& value, const char* what) {
  const std::optional<double> v = support::parse_double(value);
  if (!v) {
    throw ParseError(std::string(what) + ": bad number '" + value + "'");
  }
  return *v;
}

template <typename T>
T parse_int_kv(const std::string& value, const char* what) {
  const std::optional<T> v = support::parse_int<T>(value);
  if (!v) {
    throw ParseError(std::string(what) + ": bad integer '" + value + "'");
  }
  return *v;
}

}  // namespace

std::string SimOptions::to_text() const {
  char buf[160];
  std::snprintf(buf, sizeof(buf),
                "simoptions\nmax_relax_iters=%zu\nrecord_internal=%d\n"
                "gate_load_pf=%.9g\n",
                max_relax_iters, record_internal ? 1 : 0, gate_load_pf);
  return buf;
}

SimOptions SimOptions::from_text(std::string_view text) {
  SimOptions opts;
  for (const std::string& raw : support::split(text, '\n')) {
    const std::string_view body = support::trim(raw);
    if (body.empty() || body == "simoptions" || body[0] == '#') continue;
    const std::size_t eq = body.find('=');
    if (eq == std::string_view::npos) {
      throw ParseError("simoptions: expected key=value, got '" +
                       std::string(body) + "'");
    }
    const std::string key(body.substr(0, eq));
    const std::string value(body.substr(eq + 1));
    if (key == "max_relax_iters") {
      opts.max_relax_iters = parse_int_kv<std::size_t>(value, "simoptions");
    } else if (key == "record_internal") {
      opts.record_internal = parse_int_kv<int>(value, "simoptions") != 0;
    } else if (key == "gate_load_pf") {
      opts.gate_load_pf = parse_double_kv(value, "simoptions");
    } else {
      throw ParseError("simoptions: unknown key '" + key + "'");
    }
  }
  return opts;
}

std::string SimStatistics::to_text() const {
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "statistics\ninput_events=%llu\nrelax_iterations=%llu\n"
                "net_updates=%llu\noutput_toggles=%llu\nx_nets=%llu\n",
                static_cast<unsigned long long>(input_events),
                static_cast<unsigned long long>(relax_iterations),
                static_cast<unsigned long long>(net_updates),
                static_cast<unsigned long long>(output_toggles),
                static_cast<unsigned long long>(x_nets));
  return buf;
}

SimStatistics SimStatistics::from_text(std::string_view text) {
  SimStatistics stats;
  for (const std::string& raw : support::split(text, '\n')) {
    const std::string_view body = support::trim(raw);
    if (body.empty() || body == "statistics" || body[0] == '#') continue;
    const std::size_t eq = body.find('=');
    if (eq == std::string_view::npos) {
      throw ParseError("statistics: expected key=value");
    }
    const std::string key(body.substr(0, eq));
    const auto value = parse_int_kv<std::uint64_t>(
        std::string(body.substr(eq + 1)), "statistics");
    if (key == "input_events") {
      stats.input_events = value;
    } else if (key == "relax_iterations") {
      stats.relax_iterations = value;
    } else if (key == "net_updates") {
      stats.net_updates = value;
    } else if (key == "output_toggles") {
      stats.output_toggles = value;
    } else if (key == "x_nets") {
      stats.x_nets = value;
    } else {
      throw ParseError("statistics: unknown key '" + key + "'");
    }
  }
  return stats;
}

const Waveform& SimResult::wave(std::string_view net) const {
  for (const Waveform& w : waves) {
    if (w.net == net) return w;
  }
  throw ExecError("simulation result has no waveform for net '" +
                  std::string(net) + "'");
}

bool SimResult::has_wave(std::string_view net) const {
  for (const Waveform& w : waves) {
    if (w.net == net) return true;
  }
  return false;
}

std::string SimResult::to_text() const {
  std::string out = "performance\n";
  out += "metric max_delay_ps=" + std::to_string(max_delay_ps) + "\n";
  for (const Waveform& w : waves) {
    out += "wave " + w.net;
    for (const WavePoint& p : w.points) {
      out += ' ' + std::to_string(p.time_ps) + ':';
      out += to_char(p.level);
    }
    out += "\n";
  }
  // Embed the statistics so a Performance payload is self-contained.
  for (const std::string& line :
       support::split(stats.to_text(), '\n')) {
    if (support::trim(line).empty() || line == "statistics") continue;
    out += "stat " + line + "\n";
  }
  return out;
}

SimResult SimResult::from_text(std::string_view text) {
  SimResult result;
  std::string stat_block = "statistics\n";
  for (const std::string& raw : support::split(text, '\n')) {
    const std::string_view body = support::trim(raw);
    if (body.empty() || body == "performance" || body[0] == '#') continue;
    const auto tokens = support::split_ws(body);
    if (tokens[0] == "metric") {
      const std::size_t eq = tokens[1].find('=');
      if (eq == std::string::npos || tokens[1].substr(0, eq) != "max_delay_ps") {
        throw ParseError("performance: bad metric line");
      }
      result.max_delay_ps =
          parse_int_kv<std::int64_t>(tokens[1].substr(eq + 1), "performance");
    } else if (tokens[0] == "stat") {
      stat_block += std::string(body.substr(5)) + "\n";
    } else if (tokens[0] == "wave") {
      // Reuse the stimuli waveform grammar.
      const Stimuli parsed =
          Stimuli::from_text("stimuli tmp\n" + std::string(body) + "\n");
      result.waves.push_back(parsed.waves().front());
    } else {
      throw ParseError("performance: unknown directive '" + tokens[0] + "'");
    }
  }
  result.stats = SimStatistics::from_text(stat_block);
  return result;
}

SimResult simulate(const Netlist& netlist, const DeviceModelLibrary& models,
                   const Stimuli& stimuli, const SimOptions& options) {
  netlist.validate();

  // Net indexing: 0 = VDD, 1 = GND, then declared nets.
  std::unordered_map<std::string, std::size_t> index;
  index.emplace(std::string(kVdd), 0);
  index.emplace(std::string(kGnd), 1);
  std::vector<std::string> net_names{std::string(kVdd), std::string(kGnd)};
  for (const std::string& n : netlist.nets()) {
    if (index.emplace(n, net_names.size()).second) net_names.push_back(n);
  }
  const std::size_t n_nets = net_names.size();

  // Elements, per-net delay data.
  std::vector<Element> elements;
  std::vector<double> net_cap(n_nets, 0.0);
  std::vector<std::vector<std::size_t>> channel_elements(n_nets);
  for (const Device& d : netlist.devices()) {
    if (d.is_mos()) {
      if (!models.has_model(d.model)) {
        throw ExecError("simulate: netlist '" + netlist.name() +
                        "' uses unknown model '" + d.model + "'");
      }
      Element e;
      e.kind = d.type == DeviceType::kNmos ? Element::kNmosEl
                                           : Element::kPmosEl;
      e.gate = index.at(d.terminals[0]);
      e.a = index.at(d.terminals[1]);
      e.b = index.at(d.terminals[2]);
      e.weak = d.value < kWeakWidth;
      channel_elements[e.a].push_back(elements.size());
      channel_elements[e.b].push_back(elements.size());
      // Gate and diffusion load scale with device width, so widening a
      // transistor speeds its own output but loads its driver — the
      // trade-off the optimizers search.
      net_cap[e.gate] += options.gate_load_pf * d.value;
      net_cap[e.a] += options.gate_load_pf * 0.5 * d.value;
      net_cap[e.b] += options.gate_load_pf * 0.5 * d.value;
      elements.push_back(e);
    } else if (d.type == DeviceType::kResistor) {
      Element e;
      e.kind = Element::kResEl;
      e.a = index.at(d.terminals[0]);
      e.b = index.at(d.terminals[1]);
      channel_elements[e.a].push_back(elements.size());
      channel_elements[e.b].push_back(elements.size());
      elements.push_back(e);
    } else {  // capacitor
      net_cap[index.at(d.terminals[0])] += d.value;
      net_cap[index.at(d.terminals[1])] += d.value;
    }
  }
  // Device widths / models for drive-resistance estimation.
  std::vector<double> element_r(elements.size(), 10.0);
  {
    std::size_t ei = 0;
    for (const Device& d : netlist.devices()) {
      if (d.is_mos()) {
        element_r[ei++] = models.model(d.model).resistance_kohm /
                          std::max(d.value, 1e-6);
      } else if (d.type == DeviceType::kResistor) {
        element_r[ei++] = d.value / 1000.0;  // ohms -> kohm
      }
    }
  }

  std::vector<std::size_t> input_index;
  input_index.reserve(netlist.inputs().size());
  for (const std::string& in : netlist.inputs()) {
    input_index.push_back(index.at(in));
  }

  // Which nets get waveforms recorded.
  std::vector<std::size_t> recorded;
  for (const std::string& out : netlist.outputs()) {
    recorded.push_back(index.at(out));
  }
  if (options.record_internal) {
    for (std::size_t i = 2; i < n_nets; ++i) {
      if (std::find(recorded.begin(), recorded.end(), i) == recorded.end()) {
        recorded.push_back(i);
      }
    }
  }

  SimResult result;
  SimStatistics& stats = result.stats;
  std::vector<Level> prev(n_nets, Level::kX);
  prev[0] = Level::kHigh;
  prev[1] = Level::kLow;
  std::vector<std::vector<WavePoint>> recs(recorded.size());

  const std::size_t iter_cap = options.max_relax_iters != 0
                                   ? options.max_relax_iters
                                   : 4 * n_nets + 8;
  std::vector<Level> val(n_nets, Level::kX);
  std::vector<int> str(n_nets, 0);
  std::vector<char> element_on(elements.size(), 0);

  std::vector<std::int64_t> times = stimuli.event_times();
  if (times.empty()) times.push_back(0);

  std::vector<Level> gates(n_nets, Level::kX);
  for (const std::int64_t t : times) {
    ++stats.input_events;
    // Outer rounds: gate levels are frozen per round (taken from the
    // previous round's solution), the channel network is relaxed to a
    // fixpoint, then gates are refreshed.  Re-initializing from the charge
    // state each round keeps X from uncertain conduction from sticking once
    // the gate resolves; with frozen gates the inner relaxation is monotone
    // on the strength lattice, so it always terminates.
    gates = prev;
    for (std::size_t k = 0; k < input_index.size(); ++k) {
      const std::string& name = netlist.inputs()[k];
      gates[input_index[k]] =
          stimuli.has_wave(name) ? stimuli.wave(name).at(t) : Level::kX;
    }
    const std::size_t round_cap = 2 * n_nets + 4;
    for (std::size_t round = 0; round < round_cap; ++round) {
      // Initialize the lattice from rails, inputs and retained charge.
      for (std::size_t i = 0; i < n_nets; ++i) {
        val[i] = prev[i];
        str[i] = kCharged;
      }
      val[0] = Level::kHigh;
      str[0] = kDriven;
      val[1] = Level::kLow;
      str[1] = kDriven;
      for (std::size_t k = 0; k < input_index.size(); ++k) {
        const std::string& name = netlist.inputs()[k];
        val[input_index[k]] =
            stimuli.has_wave(name) ? stimuli.wave(name).at(t) : Level::kX;
        str[input_index[k]] = kDriven;
      }

      // Inner relaxation with frozen gates.
      bool changed = true;
      std::size_t iters = 0;
      while (changed && iters < iter_cap) {
        changed = false;
        ++iters;
        for (std::size_t ei = 0; ei < elements.size(); ++ei) {
          const Element& e = elements[ei];
          bool on = false;
          bool uncertain = false;
          switch (e.kind) {
            case Element::kNmosEl:
              on = gates[e.gate] != Level::kLow;
              uncertain = gates[e.gate] == Level::kX;
              break;
            case Element::kPmosEl:
              on = gates[e.gate] != Level::kHigh;
              uncertain = gates[e.gate] == Level::kX;
              break;
            case Element::kResEl:
              on = true;
              break;
          }
          element_on[ei] = on && !uncertain;
          if (!on) continue;
          const int strength_limit =
              elements[ei].weak ? int{kWeak} : int{kResistive};
          // Uncertain (gate-X) paths carry their *source value*: when it
          // agrees with what already drives the target, nothing is
          // unknown; only differing possibilities resolve to X.  (A naive
          // "uncertain conducts X" poisons cross-coupled structures whose
          // feedback agrees with the forward path.)
          const auto propagate = [&](std::size_t from, std::size_t to) {
            const int cand_str = std::min(str[from], strength_limit);
            const Level cand_val = val[from];
            if (cand_str > str[to]) {
              // If this path might not conduct, the weaker old value could
              // survive: same value -> keep it, different -> unknown.
              const Level next = (uncertain && val[to] != cand_val)
                                     ? Level::kX
                                     : cand_val;
              str[to] = cand_str;
              if (val[to] != next) {
                val[to] = next;
                ++stats.net_updates;
              }
              changed = true;
            } else if (cand_str == str[to] && cand_val != val[to] &&
                       val[to] != Level::kX) {
              val[to] = Level::kX;
              ++stats.net_updates;
              changed = true;
            }
          };
          propagate(e.a, e.b);
          propagate(e.b, e.a);
        }
      }
      stats.relax_iterations += iters;

      if (val == gates) break;  // gate refresh changes nothing: settled
      gates = val;
    }

    // Record transitions with RC delays.
    for (std::size_t r = 0; r < recorded.size(); ++r) {
      const std::size_t net = recorded[r];
      if (val[net] == prev[net] && !recs[r].empty()) continue;
      if (!recs[r].empty() && recs[r].back().level == val[net]) continue;
      // Drive resistance: best ON channel element at the net.
      double r_drive = 10.0;
      bool any_on = false;
      for (const std::size_t ei : channel_elements[net]) {
        if (element_on[ei] != 0) {
          r_drive = any_on ? std::min(r_drive, element_r[ei])
                           : element_r[ei];
          any_on = true;
        }
      }
      const double c_total = net_cap[net];
      const std::int64_t delay =
          recs[r].empty()
              ? 0
              : std::max<std::int64_t>(
                    1, std::llround(r_drive * c_total * 1000.0));
      recs[r].push_back(WavePoint{t + delay, val[net]});
      result.max_delay_ps = std::max(result.max_delay_ps, delay);
    }
    prev = val;
  }

  // Assemble waveforms: sort, drop duplicate times (keep the later write),
  // collapse equal consecutive levels; count output toggles.
  for (std::size_t r = 0; r < recorded.size(); ++r) {
    Waveform w;
    w.net = net_names[recorded[r]];
    std::stable_sort(recs[r].begin(), recs[r].end(),
                     [](const WavePoint& x, const WavePoint& y) {
                       return x.time_ps < y.time_ps;
                     });
    for (const WavePoint& p : recs[r]) {
      if (!w.points.empty() && w.points.back().time_ps == p.time_ps) {
        w.points.back().level = p.level;
        continue;
      }
      if (!w.points.empty() && w.points.back().level == p.level) continue;
      w.points.push_back(p);
    }
    const bool is_output =
        std::find(netlist.outputs().begin(), netlist.outputs().end(),
                  w.net) != netlist.outputs().end();
    if (is_output) stats.output_toggles += w.transitions();
    result.waves.push_back(std::move(w));
  }
  for (std::size_t i = 2; i < n_nets; ++i) {
    stats.x_nets += (prev[i] == Level::kX) ? 1 : 0;
  }
  return result;
}

}  // namespace herc::circuit
