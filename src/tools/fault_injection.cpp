#include "tools/fault_injection.hpp"

#include <thread>
#include <vector>

#include "support/error.hpp"
#include "support/hash.hpp"

namespace herc::tools {

using support::ExecError;

namespace {

/// splitmix64 — a small, well-mixed pure hash; the fault decision for a
/// (seed, name, invocation) triple must be identical on every run and
/// independent of thread interleaving.
std::uint64_t mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// FNV-1a from the published offset basis, which `support::fnv1a` does
/// not start from; fault schedules depend on these exact bits.
std::uint64_t hash_name(std::string_view name) {
  return support::fnv1a_append(0xcbf29ce484222325ULL, name);
}

}  // namespace

struct FaultInjectingRegistry::State {
  std::uint64_t seed = 0;
  mutable std::mutex mutex;
  /// encapsulation name -> next invocation index.
  std::unordered_map<std::string, std::size_t> counters;
  /// (name, invocation) -> scheduled fault.
  std::unordered_map<std::string, std::unordered_map<std::size_t, FaultSpec>>
      scheduled;
  /// Random plan: fire with probability `random_threshold / 2^32`.
  bool random_armed = false;
  std::uint32_t random_threshold = 0;
  FaultKind random_kind = FaultKind::kThrow;
  std::chrono::milliseconds random_hang{50};
  std::size_t fired = 0;

  /// Claims this call's invocation index and the fault (if any) to fire.
  struct Decision {
    bool fault = false;
    FaultKind kind = FaultKind::kThrow;
    std::chrono::milliseconds hang{0};
    std::size_t invocation = 0;
  };

  Decision decide(const std::string& name) {
    std::scoped_lock lock(mutex);
    Decision d;
    d.invocation = counters[name]++;
    const auto by_name = scheduled.find(name);
    if (by_name != scheduled.end()) {
      const auto it = by_name->second.find(d.invocation);
      if (it != by_name->second.end()) {
        d.fault = true;
        d.kind = it->second.kind;
        d.hang = it->second.hang;
      }
    }
    if (!d.fault && random_armed) {
      const std::uint64_t h =
          mix(seed ^ mix(hash_name(name) ^ (0x51ed270b * d.invocation)));
      if (static_cast<std::uint32_t>(h) < random_threshold) {
        d.fault = true;
        d.kind = random_kind;
        d.hang = random_hang;
      }
    }
    if (d.fault) ++fired;
    return d;
  }
};

FaultInjectingRegistry::FaultInjectingRegistry(const ToolRegistry& inner,
                                               std::uint64_t seed)
    : ToolRegistry(inner.schema()),
      inner_(&inner),
      state_(std::make_shared<State>()) {
  state_->seed = seed;
}

void FaultInjectingRegistry::inject(FaultSpec spec) {
  std::scoped_lock lock(state_->mutex);
  auto& by_invocation = state_->scheduled[spec.encapsulation];
  by_invocation[spec.invocation] = std::move(spec);
}

void FaultInjectingRegistry::inject_random(double probability, FaultKind kind,
                                           std::chrono::milliseconds hang) {
  std::scoped_lock lock(state_->mutex);
  if (probability < 0.0) probability = 0.0;
  if (probability > 1.0) probability = 1.0;
  state_->random_armed = true;
  state_->random_threshold =
      static_cast<std::uint32_t>(probability * 4294967295.0);
  state_->random_kind = kind;
  state_->random_hang = hang;
}

void FaultInjectingRegistry::clear_faults() {
  std::scoped_lock lock(state_->mutex);
  state_->scheduled.clear();
  state_->random_armed = false;
}

const Encapsulation& FaultInjectingRegistry::wrap(
    const Encapsulation& enc) const {
  std::scoped_lock lock(wrap_mutex_);
  const auto it = wrapped_.find(enc.name);
  if (it != wrapped_.end()) return it->second;
  Encapsulation shim = enc;
  // Capture everything by value: a hung invocation abandoned by the
  // executor's timeout may outlive the decorator itself.
  shim.fn = [state = state_, inner_fn = enc.fn,
             name = enc.name](const ToolContext& ctx) -> ToolOutput {
    const State::Decision d = state->decide(name);
    if (d.fault) {
      switch (d.kind) {
        case FaultKind::kThrow:
          throw ExecError("injected fault: '" + name + "' invocation " +
                          std::to_string(d.invocation) + " crashed");
        case FaultKind::kHang:
          std::this_thread::sleep_for(d.hang);
          break;  // then run the real tool — a slow tool, not a dead one
        case FaultKind::kCorrupt: {
          ToolOutput corrupt;
          corrupt.set("__corrupt__",
                      "injected corrupt output from '" + name + "'");
          return corrupt;
        }
      }
    }
    return inner_fn(ctx);
  };
  return wrapped_.emplace(enc.name, std::move(shim)).first->second;
}

const Encapsulation& FaultInjectingRegistry::resolve(
    schema::EntityTypeId tool_type) const {
  return wrap(inner_->resolve(tool_type));
}

bool FaultInjectingRegistry::has(schema::EntityTypeId tool_type) const {
  return inner_->has(tool_type);
}

const Encapsulation* FaultInjectingRegistry::find(
    std::string_view name) const {
  const Encapsulation* enc = inner_->find(name);
  return enc == nullptr ? nullptr : &wrap(*enc);
}

std::vector<const Encapsulation*> FaultInjectingRegistry::variants(
    schema::EntityTypeId tool_type) const {
  std::vector<const Encapsulation*> out;
  for (const Encapsulation* enc : inner_->variants(tool_type)) {
    out.push_back(&wrap(*enc));
  }
  return out;
}

std::vector<std::string> FaultInjectingRegistry::names() const {
  return inner_->names();
}

std::size_t FaultInjectingRegistry::invocations(
    std::string_view encapsulation) const {
  std::scoped_lock lock(state_->mutex);
  const auto it = state_->counters.find(std::string(encapsulation));
  return it == state_->counters.end() ? 0 : it->second;
}

std::size_t FaultInjectingRegistry::faults_fired() const {
  std::scoped_lock lock(state_->mutex);
  return state_->fired;
}

}  // namespace herc::tools
