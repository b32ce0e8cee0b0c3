#include "circuit/models.hpp"

#include <cstdio>

#include "support/error.hpp"
#include "support/text.hpp"

namespace herc::circuit {

using support::ExecError;
using support::ParseError;

DeviceModelLibrary::DeviceModelLibrary(std::string name)
    : name_(std::move(name)) {}

void DeviceModelLibrary::set_model(DeviceModel model) {
  for (DeviceModel& m : models_) {
    if (m.name == model.name) {
      m = std::move(model);
      return;
    }
  }
  models_.push_back(std::move(model));
}

void DeviceModelLibrary::remove_model(std::string_view name) {
  for (auto it = models_.begin(); it != models_.end(); ++it) {
    if (it->name == name) {
      models_.erase(it);
      return;
    }
  }
  throw ExecError("model library '" + name_ + "': no model '" +
                  std::string(name) + "' to remove");
}

bool DeviceModelLibrary::has_model(std::string_view name) const {
  for (const DeviceModel& m : models_) {
    if (m.name == name) return true;
  }
  return false;
}

const DeviceModel& DeviceModelLibrary::model(std::string_view name) const {
  for (const DeviceModel& m : models_) {
    if (m.name == name) return m;
  }
  throw ExecError("model library '" + name_ + "': no model '" +
                  std::string(name) + "'");
}

std::string DeviceModelLibrary::to_text() const {
  std::string out = "models " + name_ + "\n";
  char buf[128];
  for (const DeviceModel& m : models_) {
    std::snprintf(buf, sizeof(buf),
                  "model %s type=%s resistance=%.9g threshold=%.9g\n",
                  m.name.c_str(), m.is_pmos ? "pmos" : "nmos",
                  m.resistance_kohm, m.threshold_v);
    out += buf;
  }
  return out;
}

DeviceModelLibrary DeviceModelLibrary::from_text(std::string_view text) {
  DeviceModelLibrary lib;
  int line_number = 0;
  for (const std::string& raw : support::split(text, '\n')) {
    ++line_number;
    const std::string_view body = support::trim(raw);
    if (body.empty() || body[0] == '#') continue;
    const auto tokens = support::split_ws(body);
    if (tokens[0] == "models") {
      if (tokens.size() != 2) {
        throw ParseError("models line " + std::to_string(line_number) +
                         ": expected 'models <name>'");
      }
      lib.name_ = tokens[1];
    } else if (tokens[0] == "model") {
      if (tokens.size() < 2) {
        throw ParseError("models line " + std::to_string(line_number) +
                         ": model needs a name");
      }
      DeviceModel m;
      m.name = tokens[1];
      for (std::size_t i = 2; i < tokens.size(); ++i) {
        const std::size_t eq = tokens[i].find('=');
        if (eq == std::string::npos) {
          throw ParseError("models line " + std::to_string(line_number) +
                           ": expected key=value");
        }
        const std::string key = tokens[i].substr(0, eq);
        const std::string value = tokens[i].substr(eq + 1);
        const auto number = [&] {
          const std::optional<double> v = support::parse_double(value);
          if (!v) {
            throw ParseError("models line " + std::to_string(line_number) +
                             ": bad number '" + value + "'");
          }
          return *v;
        };
        if (key == "type") {
          m.is_pmos = (value == "pmos");
        } else if (key == "resistance") {
          m.resistance_kohm = number();
        } else if (key == "threshold") {
          m.threshold_v = number();
        } else {
          throw ParseError("models line " + std::to_string(line_number) +
                           ": unknown key '" + key + "'");
        }
      }
      lib.set_model(std::move(m));
    } else {
      throw ParseError("models line " + std::to_string(line_number) +
                       ": unknown directive '" + tokens[0] + "'");
    }
  }
  return lib;
}

DeviceModelLibrary DeviceModelLibrary::standard() {
  DeviceModelLibrary lib("standard");
  lib.set_model(DeviceModel{"nch", false, 10.0, 0.6});
  lib.set_model(DeviceModel{"pch", true, 20.0, 0.6});
  return lib;
}

}  // namespace herc::circuit
