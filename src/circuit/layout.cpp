#include "circuit/layout.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <unordered_map>

#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::circuit {

using support::ExecError;
using support::ParseError;

Layout::Layout(std::string name, std::string source_netlist, int rows,
               int cols)
    : name_(std::move(name)),
      source_(std::move(source_netlist)),
      rows_(rows),
      cols_(cols) {}

void Layout::resize(int rows, int cols) {
  rows_ = rows;
  cols_ = cols;
}

void Layout::place(const Device& device, int x, int y) {
  if (has_placement(device.name)) {
    throw ExecError("layout '" + name_ + "': device '" + device.name +
                    "' is already placed");
  }
  placed_.push_back(PlacedDevice{device, x, y});
}

void Layout::move(std::string_view device, int x, int y) {
  for (PlacedDevice& p : placed_) {
    if (p.device.name == device) {
      p.x = x;
      p.y = y;
      return;
    }
  }
  throw ExecError("layout '" + name_ + "': no placed device '" +
                  std::string(device) + "'");
}

void Layout::unplace(std::string_view device) {
  const auto it =
      std::find_if(placed_.begin(), placed_.end(),
                   [&](const PlacedDevice& p) {
                     return p.device.name == device;
                   });
  if (it == placed_.end()) {
    throw ExecError("layout '" + name_ + "': no placed device '" +
                    std::string(device) + "'");
  }
  placed_.erase(it);
}

bool Layout::has_placement(std::string_view device) const {
  return std::any_of(placed_.begin(), placed_.end(),
                     [&](const PlacedDevice& p) {
                       return p.device.name == device;
                     });
}

const PlacedDevice& Layout::placement(std::string_view device) const {
  for (const PlacedDevice& p : placed_) {
    if (p.device.name == device) return p;
  }
  throw ExecError("layout '" + name_ + "': no placed device '" +
                  std::string(device) + "'");
}

void Layout::add_pin(std::string_view net, int x, int y, bool is_output) {
  pins_.push_back(Pin{std::string(net), x, y, is_output});
}

int WireSegment::length() const {
  return std::abs(x2 - x1) + std::abs(y2 - y1);
}

bool WireSegment::covers(int x, int y) const {
  const int lo_x = std::min(x1, x2);
  const int hi_x = std::max(x1, x2);
  const int lo_y = std::min(y1, y2);
  const int hi_y = std::max(y1, y2);
  return x >= lo_x && x <= hi_x && y >= lo_y && y <= hi_y;
}

void Layout::add_wire(std::string_view net, int x1, int y1, int x2, int y2) {
  if (x1 != x2 && y1 != y2) {
    throw ExecError("layout '" + name_ + "': wire for net '" +
                    std::string(net) + "' is not axis-aligned");
  }
  wires_.push_back(WireSegment{std::string(net), x1, y1, x2, y2});
}

bool Layout::has_wires(std::string_view net) const {
  return std::any_of(wires_.begin(), wires_.end(),
                     [&](const WireSegment& w) { return w.net == net; });
}

double Layout::routed_length(std::string_view net) const {
  double total = 0.0;
  for (const WireSegment& w : wires_) {
    if (w.net == net) total += w.length();
  }
  return total;
}

std::vector<std::pair<int, int>> Layout::terminals_of(
    std::string_view net) const {
  std::vector<std::pair<int, int>> out;
  const auto add = [&](int x, int y) {
    if (std::find(out.begin(), out.end(), std::make_pair(x, y)) ==
        out.end()) {
      out.emplace_back(x, y);
    }
  };
  for (const PlacedDevice& p : placed_) {
    for (const std::string& t : p.device.terminals) {
      if (t == net) add(p.x, p.y);
    }
  }
  for (const Pin& pin : pins_) {
    if (pin.net == net) add(pin.x, pin.y);
  }
  return out;
}

bool Layout::net_connected(std::string_view net) const {
  const auto terminals = terminals_of(net);
  if (terminals.size() < 2) return true;

  // Union-find over terminals and the net's wire segments.
  std::vector<WireSegment> segs;
  for (const WireSegment& w : wires_) {
    if (w.net == net) segs.push_back(w);
  }
  const std::size_t n = terminals.size() + segs.size();
  std::vector<std::size_t> parent(n);
  for (std::size_t i = 0; i < n; ++i) parent[i] = i;
  const std::function<std::size_t(std::size_t)> find =
      [&](std::size_t x) -> std::size_t {
    while (parent[x] != x) {
      parent[x] = parent[parent[x]];
      x = parent[x];
    }
    return x;
  };
  const auto unite = [&](std::size_t a, std::size_t b) {
    parent[find(a)] = find(b);
  };

  // Terminal touches a segment when its point lies on it.
  for (std::size_t t = 0; t < terminals.size(); ++t) {
    for (std::size_t s = 0; s < segs.size(); ++s) {
      if (segs[s].covers(terminals[t].first, terminals[t].second)) {
        unite(t, terminals.size() + s);
      }
    }
  }
  // Two segments connect when either endpoint of one lies on the other
  // (sufficient for rectilinear trees built from endpoints).
  for (std::size_t a = 0; a < segs.size(); ++a) {
    for (std::size_t b = a + 1; b < segs.size(); ++b) {
      const bool touch = segs[a].covers(segs[b].x1, segs[b].y1) ||
                         segs[a].covers(segs[b].x2, segs[b].y2) ||
                         segs[b].covers(segs[a].x1, segs[a].y1) ||
                         segs[b].covers(segs[a].x2, segs[a].y2);
      if (touch) unite(terminals.size() + a, terminals.size() + b);
    }
  }
  const std::size_t root = find(0);
  for (std::size_t t = 1; t < terminals.size(); ++t) {
    if (find(t) != root) return false;
  }
  return true;
}

double Layout::net_hpwl(std::string_view net) const {
  int min_x = 0;
  int max_x = 0;
  int min_y = 0;
  int max_y = 0;
  bool any = false;
  const auto touch = [&](int x, int y) {
    if (!any) {
      min_x = max_x = x;
      min_y = max_y = y;
      any = true;
    } else {
      min_x = std::min(min_x, x);
      max_x = std::max(max_x, x);
      min_y = std::min(min_y, y);
      max_y = std::max(max_y, y);
    }
  };
  for (const PlacedDevice& p : placed_) {
    for (const std::string& t : p.device.terminals) {
      if (t == net) touch(p.x, p.y);
    }
  }
  for (const Pin& pin : pins_) {
    if (pin.net == net) touch(pin.x, pin.y);
  }
  if (!any) return 0.0;
  return static_cast<double>((max_x - min_x) + (max_y - min_y));
}

std::vector<std::string> Layout::nets() const {
  std::vector<std::string> out;
  const auto add = [&](const std::string& net) {
    if (net == kVdd || net == kGnd) return;
    if (std::find(out.begin(), out.end(), net) == out.end()) {
      out.push_back(net);
    }
  };
  for (const PlacedDevice& p : placed_) {
    for (const std::string& t : p.device.terminals) add(t);
  }
  for (const Pin& pin : pins_) add(pin.net);
  return out;
}

double Layout::total_hpwl() const {
  double total = 0.0;
  for (const std::string& net : nets()) total += net_hpwl(net);
  return total;
}

std::vector<std::string> Layout::drc() const {
  std::vector<std::string> violations;
  std::map<std::pair<int, int>, std::string> occupied;
  for (const PlacedDevice& p : placed_) {
    if (p.x < 0 || p.x >= cols_ || p.y < 0 || p.y >= rows_) {
      violations.push_back("device '" + p.device.name +
                           "' placed outside the " + std::to_string(rows_) +
                           "x" + std::to_string(cols_) + " grid");
    }
    const auto [it, inserted] =
        occupied.try_emplace({p.x, p.y}, p.device.name);
    if (!inserted) {
      violations.push_back("devices '" + it->second + "' and '" +
                           p.device.name + "' overlap at (" +
                           std::to_string(p.x) + "," + std::to_string(p.y) +
                           ")");
    }
  }
  // Wire rule: horizontal segments share metal-1 and vertical segments
  // metal-2, so crossings are fine but collinear overlaps between
  // different nets short them.
  for (std::size_t a = 0; a < wires_.size(); ++a) {
    for (std::size_t b = a + 1; b < wires_.size(); ++b) {
      const WireSegment& wa = wires_[a];
      const WireSegment& wb = wires_[b];
      if (wa.net == wb.net) continue;
      if (wa.horizontal() != wb.horizontal()) continue;
      bool overlap;
      if (wa.horizontal()) {
        overlap = wa.y1 == wb.y1 &&
                  std::max(std::min(wa.x1, wa.x2), std::min(wb.x1, wb.x2)) <
                      std::min(std::max(wa.x1, wa.x2),
                               std::max(wb.x1, wb.x2));
      } else {
        overlap = wa.x1 == wb.x1 &&
                  std::max(std::min(wa.y1, wa.y2), std::min(wb.y1, wb.y2)) <
                      std::min(std::max(wa.y1, wa.y2),
                               std::max(wb.y1, wb.y2));
      }
      if (overlap) {
        violations.push_back("wires of nets '" + wa.net + "' and '" +
                             wb.net + "' overlap on the same layer");
      }
    }
  }
  return violations;
}

std::string Layout::to_text() const {
  std::string out = "layout " + name_ + " source=" + source_ +
                    " rows=" + std::to_string(rows_) +
                    " cols=" + std::to_string(cols_) + "\n";
  char buf[64];
  for (const PlacedDevice& p : placed_) {
    const Device& d = p.device;
    out += "place " + d.name + " ";
    out += to_string(d.type);
    out += " x=" + std::to_string(p.x) + " y=" + std::to_string(p.y);
    if (d.is_mos()) {
      out += " g=" + d.terminals[0] + " d=" + d.terminals[1] +
             " s=" + d.terminals[2] + " model=" + d.model;
    } else {
      out += " a=" + d.terminals[0] + " b=" + d.terminals[1];
    }
    std::snprintf(buf, sizeof(buf), "%.9g", d.value);
    out += " value=";
    out += buf;
    out += "\n";
  }
  for (const Pin& pin : pins_) {
    out += "pin " + pin.net + " x=" + std::to_string(pin.x) +
           " y=" + std::to_string(pin.y) +
           " dir=" + (pin.is_output ? "out" : "in") + "\n";
  }
  for (const WireSegment& w : wires_) {
    out += "wire " + w.net + " " + std::to_string(w.x1) + " " +
           std::to_string(w.y1) + " " + std::to_string(w.x2) + " " +
           std::to_string(w.y2) + "\n";
  }
  return out;
}

namespace {

std::unordered_map<std::string, std::string> parse_kv(
    const std::vector<std::string>& tokens, std::size_t start,
    int line_number) {
  std::unordered_map<std::string, std::string> kv;
  for (std::size_t i = start; i < tokens.size(); ++i) {
    const std::size_t eq = tokens[i].find('=');
    if (eq == std::string::npos) {
      throw ParseError("layout line " + std::to_string(line_number) +
                       ": expected key=value, got '" + tokens[i] + "'");
    }
    kv[tokens[i].substr(0, eq)] = tokens[i].substr(eq + 1);
  }
  return kv;
}

const std::string& require_kv(
    const std::unordered_map<std::string, std::string>& kv,
    const std::string& key, int line_number) {
  const auto it = kv.find(key);
  if (it == kv.end()) {
    throw ParseError("layout line " + std::to_string(line_number) +
                     ": missing '" + key + "='");
  }
  return it->second;
}

int parse_int(const std::string& s, int line_number) {
  const std::optional<int> v = support::parse_int<int>(s);
  if (!v) {
    throw ParseError("layout line " + std::to_string(line_number) +
                     ": bad integer '" + s + "'");
  }
  return *v;
}

double parse_double(const std::string& s, int line_number) {
  const std::optional<double> v = support::parse_double(s);
  if (!v) {
    throw ParseError("layout line " + std::to_string(line_number) +
                     ": bad number '" + s + "'");
  }
  return *v;
}

}  // namespace

Layout Layout::from_text(std::string_view text) {
  Layout layout;
  int line_number = 0;
  for (const std::string& raw : support::split(text, '\n')) {
    ++line_number;
    const std::string_view body = support::trim(raw);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = support::split_ws(body);
    if (tokens[0] == "layout") {
      if (tokens.size() < 2) {
        throw ParseError("layout line " + std::to_string(line_number) +
                         ": expected 'layout <name> ...'");
      }
      layout.name_ = tokens[1];
      const auto kv = parse_kv(tokens, 2, line_number);
      if (const auto it = kv.find("source"); it != kv.end()) {
        layout.source_ = it->second;
      }
      if (const auto it = kv.find("rows"); it != kv.end()) {
        layout.rows_ = parse_int(it->second, line_number);
      }
      if (const auto it = kv.find("cols"); it != kv.end()) {
        layout.cols_ = parse_int(it->second, line_number);
      }
    } else if (tokens[0] == "place") {
      if (tokens.size() < 3) {
        throw ParseError("layout line " + std::to_string(line_number) +
                         ": expected 'place <name> <type> ...'");
      }
      const auto type = device_type_from(tokens[2]);
      if (!type) {
        throw ParseError("layout line " + std::to_string(line_number) +
                         ": unknown device type '" + tokens[2] + "'");
      }
      const auto kv = parse_kv(tokens, 3, line_number);
      Device d;
      d.name = tokens[1];
      d.type = *type;
      if (d.is_mos()) {
        d.terminals = {require_kv(kv, "g", line_number),
                       require_kv(kv, "d", line_number),
                       require_kv(kv, "s", line_number)};
        const auto it = kv.find("model");
        d.model = it == kv.end()
                      ? (d.type == DeviceType::kNmos ? "nch" : "pch")
                      : it->second;
      } else {
        d.terminals = {require_kv(kv, "a", line_number),
                       require_kv(kv, "b", line_number)};
      }
      if (const auto it = kv.find("value"); it != kv.end()) {
        d.value = parse_double(it->second, line_number);
      }
      layout.place(d, parse_int(require_kv(kv, "x", line_number), line_number),
                   parse_int(require_kv(kv, "y", line_number), line_number));
    } else if (tokens[0] == "pin") {
      if (tokens.size() < 2) {
        throw ParseError("layout line " + std::to_string(line_number) +
                         ": pin needs a net");
      }
      const auto kv = parse_kv(tokens, 2, line_number);
      layout.add_pin(
          tokens[1], parse_int(require_kv(kv, "x", line_number), line_number),
          parse_int(require_kv(kv, "y", line_number), line_number),
          require_kv(kv, "dir", line_number) == "out");
    } else if (tokens[0] == "wire") {
      if (tokens.size() != 6) {
        throw ParseError("layout line " + std::to_string(line_number) +
                         ": expected 'wire <net> x1 y1 x2 y2'");
      }
      layout.add_wire(tokens[1], parse_int(tokens[2], line_number),
                      parse_int(tokens[3], line_number),
                      parse_int(tokens[4], line_number),
                      parse_int(tokens[5], line_number));
    } else {
      throw ParseError("layout line " + std::to_string(line_number) +
                       ": unknown directive '" + tokens[0] + "'");
    }
  }
  return layout;
}

}  // namespace herc::circuit
