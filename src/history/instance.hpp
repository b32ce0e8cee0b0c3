// Entity instances and their derivation meta-data.
//
// The paper's central data-management idea: every design object is created
// by executing a flow, so storing *a small amount of meta-data with each
// object* — the immediate tool and data instances used to create it — is
// enough to reconstruct the complete derivation history of a design and to
// subsume version management (§1, §4.2).
#pragma once

#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "data/blob_store.hpp"
#include "data/instance_id.hpp"
#include "history/text_pool.hpp"
#include "schema/entity.hpp"
#include "support/clock.hpp"

namespace herc::history {

/// How one instance came to exist: the tool instance that ran and the data
/// instances it consumed, in the order of the task's input edges.
///
/// An imported instance (a source entity the designer supplied) has an
/// empty derivation.  A composite instance has inputs but no tool.
///
/// A `RecordRequest` and an `InstanceRecord` carry the owning form,
/// `Derivation`; the instance table holds a `PooledDerivation`, whose
/// inputs are a run of the database's arena and whose role list and task
/// label are handles into its `TextPool`; replay reads a `DerivationView`
/// of the record line.  The tool comes last, so that in an `Instance` the
/// next 4-byte field fills the padding after it.
template <class Inputs, class Roles, class Label>
struct BasicDerivation {
  /// Input instances, parallel with `input_roles`.
  Inputs inputs;
  Roles input_roles;
  /// Short description of the producing step ("Simulator", "compose",
  /// "import", ...) used in trace renderings.
  Label task;
  /// The tool instance executed; invalid for imports and compose tasks.
  data::InstanceId tool;

  [[nodiscard]] bool is_import() const {
    return !tool.valid() && inputs.empty();
  }
};

using Derivation = BasicDerivation<std::vector<data::InstanceId>,
                                   std::vector<std::string>, std::string>;
using PooledDerivation = BasicDerivation<ArenaIds, RoleList, Text>;
/// A derivation that views another's or a record line and its staged ids.
using DerivationView =
    BasicDerivation<std::span<const data::InstanceId>,
                    std::vector<std::string_view>, std::string_view>;

/// Outcome of the task execution that a record describes.  The history
/// records *everything* that happened during a design (§4.2), including
/// tasks that failed or were skipped because a dependency failed: those
/// records carry the derivation meta-data of the attempt ("which tasks
/// failed, with what inputs?") but are invisible to binding, memoization
/// and consistency queries — a failed output is treated as absent.
enum class InstanceStatus : std::uint8_t {
  kOk = 0,       ///< the task produced this instance
  kFailed = 1,   ///< the task ran (with retries) and failed; no payload
  kSkipped = 2,  ///< the task never ran: an upstream dependency failed
  /// The instance was produced, but by a task of a run that crashed before
  /// the task finished (or it failed an fsck audit): its payload is kept
  /// for inspection, but like a failure record it never satisfies binding,
  /// memoization or version queries — a resumed run re-derives it.
  kQuarantined = 3,
};

/// One design object: meta-data plus a reference to shared physical data.
///
/// A history keeps every instance in memory, so what one costs bounds the
/// history a server can hold: 80 bytes and no allocation of its own.  The
/// texts that repeat (user, task label, role list) are handles into the
/// database's `TextPool`; the name, the comment and the derivation's
/// inputs are handles to runs of its arena, null when empty (imports have
/// no inputs, and direct records often no comment; a flow run comments
/// each of its products).  The 8-byte fields come first and the 4-byte
/// ones fill the derivation's tail, so no padding is left but the end's.
struct Instance {
  /// User-visible name ("Low pass filter"); may be empty.
  ArenaText name;
  /// Who created it (Fig. 9 records user-id per instance).
  Text user;
  support::Timestamp created;
  /// Free-text annotation (§4.1: designers document steps this way).
  ArenaText comment;
  /// Laid out as a base class would be, so that `id` takes the padding
  /// after `derivation.tool`.
  [[no_unique_address]] PooledDerivation derivation;
  data::InstanceId id;
  schema::EntityTypeId type;
  /// The physical payload in the database's blob store; several
  /// instances may share one blob (footnote 5's RCS analogy).
  data::BlobRef blob;
  /// Version ordinal within the instance's edit lineage (1 = original).
  std::uint32_t version = 1;
  /// Failure records (`kFailed`/`kSkipped`) exist only for their
  /// derivation meta-data; their payload is empty and `comment` holds the
  /// error message (or skip reason).
  InstanceStatus status = InstanceStatus::kOk;

  [[nodiscard]] bool ok() const { return status == InstanceStatus::kOk; }
};

}  // namespace herc::history
