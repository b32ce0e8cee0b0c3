// Persistent secondary indexes over the design history (src/index).
//
// `HistoryIndexes` maintains the candidate-generating indexes behind the
// Fig. 9 browser and the §4.2 query predicates:
//
//   keyword   token postings over instance names/comments/annotations,
//             with a trigram map over the token dictionary so substring
//             keywords resolve without scanning it
//   user      per-creating-user posting lists
//   type      per-concrete-entity-type creation lists
//   date      global creation-date list
//   adjacency the derivation graph's edge count + digest (queries delegate
//             to `HistoryDb::used_by`, which is already the forward index;
//             persisting the edges again would double the store in memory)
//
// Maintenance is incremental: the structure subscribes to its store's
// change feed, so it sees exactly the frames the HERCWAL1 journal persists,
// local and replicated alike, as decoded records (history/record_codec.hpp)
// it never re-parses; a rebase that replaced the contents (a replica
// resync) triggers a full rebuild.  Journal text (open's catch-up) goes
// through the same codec, decoding only the kinds the index folds.
//
// Persistence (`indexes.herc` next to the snapshot/journal) is epoch- and
// sequence-stamped: a file written at (epoch E, seq S) plus the journal
// records from S onward reproduces the live index exactly.  Any skew —
// wrong epoch, bad checksum, a seq the journal never reached, a torn or
// tampered file — falls back to a rebuild from the recovered database, so
// the index can never be *wrong*, only cold.  Postings are candidate
// supersets by contract (the planner re-verifies every candidate); stale
// entries from annotation replacement are therefore harmless and are kept
// rather than tombstoned.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <unordered_map>
#include <utility>
#include <vector>

#include "history/history_db.hpp"
#include "history/query_planner.hpp"
#include "index/arena.hpp"

namespace herc::index {

/// Lowercased maximal `[a-z0-9_]` runs of `text` — the keyword-index
/// vocabulary.  "Low-pass Filter v2" -> {"low", "pass", "filter", "v2"}.
[[nodiscard]] std::vector<std::string> tokenize(std::string_view text);

/// True when `keyword` is one uninterrupted token-charset run, i.e. any
/// occurrence of it in a name/comment lies inside a single token and the
/// token dictionary can answer the substring query.
[[nodiscard]] bool indexable_keyword(std::string_view keyword);

inline constexpr std::string_view kIndexMagic = "HERCIDX1";
inline constexpr std::string_view kIndexFileName = "indexes.herc";

/// The pure index data — everything `indexes.herc` persists — plus the
/// incremental application rules.  Shared verbatim by the runtime
/// (`HistoryIndexes`) and by fsck's audit, so "what the index should hold"
/// has exactly one definition.
struct IndexImage {
  std::uint64_t epoch = 0;
  /// Journal frames of `epoch` already folded in; records from here on
  /// must be re-applied on open.
  std::uint64_t seq = 0;
  /// Instance records folded in (the table size the image describes).
  std::uint32_t instances = 0;

  /// Token dictionary: id <-> text, first-seen order.
  TokenDictionary tokens;
  /// Token id -> instance ids (ascending, deduplicated).
  PostingLists postings;

  /// Creating user -> instance ids (ascending).
  std::unordered_map<std::string, std::vector<std::uint32_t>> users;

  /// Concrete entity-type name -> (created micros, id), ascending.  Keyed
  /// by name (not id) so the file does not depend on schema numbering.
  std::unordered_map<std::string,
                     std::vector<std::pair<std::int64_t, std::uint32_t>>>
      by_type;
  /// Global (created micros, id), ascending.  Derived (not persisted):
  /// rebuilt from the per-type lists on parse.
  std::vector<std::pair<std::int64_t, std::uint32_t>> by_date;

  /// Derivation-adjacency summary: edge count and an order-sensitive FNV
  /// fold over (src, dst) pairs in application order, audited by fsck.
  std::uint64_t edges = 0;
  std::uint64_t adjacency_digest = 0;

  /// Folds one freshly recorded instance in.
  void add_instance(std::uint32_t id, std::string_view type_name,
                    std::string_view name, std::string_view user,
                    std::int64_t created, std::string_view comment,
                    const history::Derivation& derivation);
  /// Folds one decoded record in: `inst`, `annot` (the new name/comment
  /// tokens are added; old postings stay, as supersets are fine and
  /// omissions are not) and `quar` carry index content; blob and run-log
  /// records are ignored.
  void fold(const history::Record& record);

  /// Serializes header + sections; `parse` inverts it.  The header carries
  /// a checksum over the body, so torn or tampered files are detected.
  [[nodiscard]] std::string serialize() const;
  /// Returns false (with `error` set) on any structural defect; `out` is
  /// untouched in that case.
  [[nodiscard]] static bool parse(std::string_view text, IndexImage& out,
                                  std::string& error);

 private:
  /// Interns each token of `text` and posts `id` under it (sorted insert,
  /// absent-only).
  void add_tokens(std::uint32_t id, std::string_view text);
};

/// Trigram -> ids of the tokens whose text contains it, over the first
/// `covered` tokens of a dictionary: resolves substring keywords without
/// scanning the dictionary.
struct TrigramMap {
  /// The three bytes of a trigram packed into one key.
  [[nodiscard]] static std::uint32_t key(std::string_view trigram);

  std::unordered_map<std::uint32_t, std::vector<std::uint32_t>> lists;
  std::size_t covered = 0;

  /// Extends the map over the tokens added since the last call (a token
  /// dictionary only grows, so this is an append).
  void extend(const TokenDictionary& tokens);
};

/// The live secondary indexes of one database: a `SecondaryIndex` the query
/// planner consults and a `ChangeSubscriber` of its store's feed keeping
/// itself current.  Not internally synchronized — reads and mutations
/// follow the same locking the `HistoryDb` itself requires.
class HistoryIndexes final : public history::SecondaryIndex,
                             public history::ChangeSubscriber {
 public:
  /// `db` must outlive this object.  The constructor does not read `db`;
  /// call `open` or `rebuild`, then subscribe it to the store that
  /// journals `db`.
  explicit HistoryIndexes(history::HistoryDb& db);

  HistoryIndexes(const HistoryIndexes&) = delete;
  HistoryIndexes& operator=(const HistoryIndexes&) = delete;

  /// What `open` found and did.
  struct OpenReport {
    /// True when the index file was usable (possibly after catch-up).
    bool loaded = false;
    /// True when the index was rebuilt from the database instead.
    bool rebuilt = false;
    /// Journal records re-applied on top of the loaded file.
    std::size_t caught_up = 0;
    /// Why a rebuild happened ("" when loaded cleanly).
    std::string reason;
  };

  /// An index file as read from disk, not yet checked against a store.
  struct LoadedImage {
    /// Nullopt when the file is missing or does not parse; `error` says
    /// why.
    std::optional<IndexImage> image;
    std::string error;
    /// Built over the image's token dictionary.
    TrigramMap trigrams;
  };

  /// Reads and parses `dir`'s index file and builds its trigram map.  The
  /// first half of opening, and pure: it reads no database, so it can run
  /// on another thread while the store replays its snapshot.  Never throws
  /// on a bad file.
  [[nodiscard]] static LoadedImage load_image(const std::string& dir);

  /// The second half of opening: checks `loaded` against a store recovered
  /// at `epoch` whose current journal holds `journal_records` (scan_journal
  /// record payloads), then catches up on the records after the image's
  /// seq.  Rebuilds from the database instead on a missing or unreadable
  /// file, or on epoch, seq or instance-count skew.
  OpenReport open(LoadedImage loaded, std::uint64_t epoch,
                  const std::vector<std::string>& journal_records);

  /// Both halves in turn: `open(load_image(dir), ...)`.
  OpenReport open(const std::string& dir, std::uint64_t epoch,
                  const std::vector<std::string>& journal_records);

  /// Rebuilds everything from the database's current contents.
  void rebuild();

  /// Writes `dir`'s index file stamped (`epoch`, `seq`) — the store's
  /// current epoch and journal sequence, which together date the image —
  /// through `support::write_file_atomic`.
  void save(const std::string& dir, std::uint64_t epoch, std::uint64_t seq);

  [[nodiscard]] static std::string file_path(const std::string& dir);

  [[nodiscard]] const IndexImage& image() const { return img_; }

  // SecondaryIndex
  [[nodiscard]] std::optional<std::size_t> estimate(
      const history::QueryFilter& filter,
      history::AccessPath path) const override;
  [[nodiscard]] std::vector<data::InstanceId> candidates(
      const history::QueryFilter& filter, history::AccessPath path,
      const history::PageCursor& cursor, std::size_t limit) const override;
  [[nodiscard]] std::optional<std::vector<data::InstanceId>> name_candidates(
      std::string_view name) const override;

  /// Folds '\n'-separated record lines (a journal frame) in, decoding only
  /// the kinds `IndexImage::fold` reads: `open`'s catch-up, over lines the
  /// store has already decoded and checked while replaying them.
  void on_lines(std::string_view lines);

  // ChangeSubscriber
  void on_change(const history::Change& change) override;
  void on_rebase(std::uint64_t epoch, bool replaced) override;

 private:
  /// Token ids whose text contains `keyword` (already lowercased,
  /// token-charset, length >= 3).
  [[nodiscard]] std::vector<std::uint32_t> matching_tokens(
      const std::string& keyword) const;

  history::HistoryDb* db_;
  IndexImage img_;
  TrigramMap trigrams_;
};

}  // namespace herc::index
