#include "circuit/stimuli.hpp"

#include <algorithm>

#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::circuit {

using support::ExecError;
using support::ParseError;

char to_char(Level l) {
  switch (l) {
    case Level::kLow: return '0';
    case Level::kHigh: return '1';
    case Level::kX: return 'X';
  }
  return '?';
}

Level Waveform::at(std::int64_t time_ps) const {
  Level current = Level::kX;
  for (const WavePoint& p : points) {
    if (p.time_ps > time_ps) break;
    current = p.level;
  }
  return current;
}

std::size_t Waveform::transitions() const {
  std::size_t count = 0;
  for (std::size_t i = 1; i < points.size(); ++i) {
    count += (points[i].level != points[i - 1].level) ? 1 : 0;
  }
  return count;
}

Stimuli::Stimuli(std::string name) : name_(std::move(name)) {}

void Stimuli::add_wave(Waveform wave) {
  for (std::size_t i = 1; i < wave.points.size(); ++i) {
    if (wave.points[i].time_ps <= wave.points[i - 1].time_ps) {
      throw ExecError("stimuli '" + name_ + "': waveform for '" + wave.net +
                      "' is not strictly time-sorted");
    }
  }
  for (Waveform& w : waves_) {
    if (w.net == wave.net) {
      w = std::move(wave);
      return;
    }
  }
  waves_.push_back(std::move(wave));
}

bool Stimuli::has_wave(std::string_view net) const {
  for (const Waveform& w : waves_) {
    if (w.net == net) return true;
  }
  return false;
}

const Waveform& Stimuli::wave(std::string_view net) const {
  for (const Waveform& w : waves_) {
    if (w.net == net) return w;
  }
  throw ExecError("stimuli '" + name_ + "': no waveform for net '" +
                  std::string(net) + "'");
}

std::int64_t Stimuli::horizon_ps() const {
  std::int64_t horizon = 0;
  for (const Waveform& w : waves_) {
    if (!w.points.empty()) {
      horizon = std::max(horizon, w.points.back().time_ps);
    }
  }
  return horizon;
}

std::vector<std::int64_t> Stimuli::event_times() const {
  std::vector<std::int64_t> times;
  for (const Waveform& w : waves_) {
    for (const WavePoint& p : w.points) times.push_back(p.time_ps);
  }
  std::sort(times.begin(), times.end());
  times.erase(std::unique(times.begin(), times.end()), times.end());
  return times;
}

std::string Stimuli::to_text() const {
  std::string out = "stimuli " + name_ + "\n";
  for (const Waveform& w : waves_) {
    out += "wave " + w.net;
    for (const WavePoint& p : w.points) {
      out += ' ' + std::to_string(p.time_ps) + ':';
      out += to_char(p.level);
    }
    out += "\n";
  }
  return out;
}

Stimuli Stimuli::from_text(std::string_view text) {
  Stimuli st;
  int line_number = 0;
  for (const std::string& raw : support::split(text, '\n')) {
    ++line_number;
    const std::string_view body = support::trim(raw);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = support::split_ws(body);
    if (tokens[0] == "stimuli") {
      if (tokens.size() != 2) {
        throw ParseError("stimuli line " + std::to_string(line_number) +
                         ": expected 'stimuli <name>'");
      }
      st.name_ = tokens[1];
    } else if (tokens[0] == "wave") {
      if (tokens.size() < 3) {
        throw ParseError("stimuli line " + std::to_string(line_number) +
                         ": wave needs a net and points");
      }
      Waveform w;
      w.net = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const std::size_t colon = tokens[i].find(':');
        if (colon == std::string::npos || colon + 2 != tokens[i].size()) {
          throw ParseError("stimuli line " + std::to_string(line_number) +
                           ": expected time:level, got '" + tokens[i] + "'");
        }
        WavePoint p;
        const std::optional<std::int64_t> time =
            support::parse_int<std::int64_t>(
                std::string_view(tokens[i]).substr(0, colon));
        if (!time) {
          throw ParseError("stimuli line " + std::to_string(line_number) +
                           ": bad time in '" + tokens[i] + "'");
        }
        p.time_ps = *time;
        switch (tokens[i][colon + 1]) {
          case '0': p.level = Level::kLow; break;
          case '1': p.level = Level::kHigh; break;
          case 'X':
          case 'x': p.level = Level::kX; break;
          default:
            throw ParseError("stimuli line " + std::to_string(line_number) +
                             ": bad level in '" + tokens[i] + "'");
        }
        w.points.push_back(p);
      }
      st.add_wave(std::move(w));
    } else {
      throw ParseError("stimuli line " + std::to_string(line_number) +
                       ": unknown directive '" + tokens[0] + "'");
    }
  }
  return st;
}

Waveform Stimuli::clock(std::string_view net, std::int64_t period_ps,
                        std::size_t cycles) {
  Waveform w;
  w.net = std::string(net);
  const std::int64_t half = period_ps / 2;
  for (std::size_t c = 0; c < cycles; ++c) {
    const std::int64_t base = static_cast<std::int64_t>(c) * period_ps;
    w.points.push_back(WavePoint{base, Level::kLow});
    w.points.push_back(WavePoint{base + half, Level::kHigh});
  }
  w.points.push_back(
      WavePoint{static_cast<std::int64_t>(cycles) * period_ps, Level::kLow});
  return w;
}

Stimuli Stimuli::counter(const std::vector<std::string>& nets,
                         std::int64_t step_ps) {
  Stimuli st("counter");
  const std::size_t codes = std::size_t{1} << nets.size();
  for (std::size_t bit = 0; bit < nets.size(); ++bit) {
    Waveform w;
    w.net = nets[bit];
    Level prev = Level::kX;
    for (std::size_t code = 0; code < codes; ++code) {
      const Level level =
          ((code >> bit) & 1U) != 0 ? Level::kHigh : Level::kLow;
      if (level != prev) {
        w.points.push_back(
            WavePoint{static_cast<std::int64_t>(code) * step_ps, level});
        prev = level;
      }
    }
    st.add_wave(std::move(w));
  }
  return st;
}

Stimuli Stimuli::random(const std::vector<std::string>& nets,
                        std::int64_t step_ps, std::size_t steps,
                        std::uint64_t seed) {
  Stimuli st("random");
  std::uint64_t state = seed == 0 ? 0x9e3779b97f4a7c15ULL : seed;
  const auto next_bit = [&state]() {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    return (state >> 33) & 1U;
  };
  for (const std::string& net : nets) {
    Waveform w;
    w.net = net;
    Level prev = Level::kX;
    for (std::size_t i = 0; i < steps; ++i) {
      const Level level = next_bit() != 0 ? Level::kHigh : Level::kLow;
      if (level != prev) {
        w.points.push_back(
            WavePoint{static_cast<std::int64_t>(i) * step_ps, level});
        prev = level;
      }
    }
    if (w.points.empty()) {
      w.points.push_back(WavePoint{0, Level::kLow});
    } else if (w.points.front().time_ps != 0) {
      w.points.insert(w.points.begin(),
                      WavePoint{0, w.points.front().level == Level::kHigh
                                       ? Level::kLow
                                       : Level::kHigh});
    }
    st.add_wave(std::move(w));
  }
  return st;
}

}  // namespace herc::circuit
