#include "index/indexes.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <limits>
#include <queue>
#include <span>

#include "support/envelope.hpp"
#include "support/error.hpp"
#include "support/file.hpp"
#include "support/hash.hpp"
#include "support/record.hpp"
#include "support/text.hpp"

namespace herc::index {

namespace fs = std::filesystem;
using data::InstanceId;

namespace {

bool is_token_char(char c) {
  return (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') || c == '_';
}

char lower(char c) {
  return (c >= 'A' && c <= 'Z') ? static_cast<char>(c - 'A' + 'a') : c;
}

std::string lowercase(std::string_view s) {
  std::string out(s);
  for (char& c : out) c = lower(c);
  return out;
}

}  // namespace

std::vector<std::string> tokenize(std::string_view text) {
  std::vector<std::string> out;
  std::string cur;
  for (const char raw : text) {
    const char c = lower(raw);
    if (is_token_char(c)) {
      cur += c;
    } else if (!cur.empty()) {
      out.push_back(std::move(cur));
      cur.clear();
    }
  }
  if (!cur.empty()) out.push_back(std::move(cur));
  return out;
}

bool indexable_keyword(std::string_view keyword) {
  if (keyword.empty()) return false;
  for (const char c : keyword) {
    if (!is_token_char(lower(c))) return false;
  }
  return true;
}

// ---- IndexImage ------------------------------------------------------------

void IndexImage::add_tokens(std::uint32_t id, std::string_view text) {
  for (const std::string& tok : tokenize(text)) {
    const auto [tid, added] = tokens.intern(tok);
    if (added) postings.add();
    postings.insert(tid, id);
  }
}

void IndexImage::add_instance(std::uint32_t id, std::string_view type_name,
                              std::string_view name, std::string_view user,
                              std::int64_t created, std::string_view comment,
                              InstanceId tool,
                              std::span<const InstanceId> inputs) {
  add_tokens(id, name);
  add_tokens(id, comment);
  users[std::string(user)].push_back(id);
  by_type[std::string(type_name)].emplace_back(created, id);
  const auto fold_edge = [this, id](InstanceId src) {
    ++edges;
    const std::string edge =
        std::to_string(src.value()) + ">" + std::to_string(id) + ";";
    adjacency_digest = support::fnv1a_append(adjacency_digest, edge);
  };
  if (tool.valid()) fold_edge(tool);
  for (const InstanceId in : inputs) fold_edge(in);
  ++instances;
}

void IndexImage::fold(const history::Record& record) {
  if (const auto* inst = std::get_if<history::InstanceRecord>(&record)) {
    add_instance(inst->id.value(), inst->type, inst->name, inst->user,
                 inst->created.micros(), inst->comment, inst->derivation.tool,
                 inst->derivation.inputs);
  } else if (const auto* annot =
                 std::get_if<history::AnnotateRecord>(&record)) {
    add_tokens(annot->id.value(), annot->name);
    add_tokens(annot->id.value(), annot->comment);
  } else if (const auto* quar =
                 std::get_if<history::QuarantineRecord>(&record)) {
    // Quarantine appends "[quarantined: <reason>]" to the comment; index
    // the same tokens so a keyword search over that text still matches.
    add_tokens(quar->id.value(), "quarantined " + quar->reason);
  }
  // blob and run-log records carry nothing the indexes serve.
}

std::string IndexImage::serialize() const {
  support::RecordWriter stamp("stamp");
  stamp.field(static_cast<std::int64_t>(epoch));
  stamp.field(static_cast<std::int64_t>(seq));
  stamp.field(instances);
  std::string payload = stamp.str() + "\n";
  for (std::uint32_t t = 0; t < tokens.size(); ++t) {
    support::RecordWriter w("tok");
    w.field(tokens.text(t));
    for (const std::uint32_t id : postings[t]) w.field(id);
    payload += w.str();
    payload += '\n';
  }
  // Map sections in sorted key order, so the same image always serializes
  // to the same bytes; each list `kListLineEntries` entries to a line.
  const auto write_lists = [&payload](std::string_view kind, const auto& map,
                                      const auto& write_entry) {
    std::vector<decltype(&*map.begin())> rows;
    rows.reserve(map.size());
    for (const auto& row : map) rows.push_back(&row);
    std::sort(rows.begin(), rows.end(), [](const auto* a, const auto* b) {
      return a->first < b->first;
    });
    for (const auto* row : rows) {
      const auto& [name, list] = *row;
      std::size_t at = 0;
      do {
        support::RecordWriter w(kind);
        w.field(name);
        const std::size_t end = std::min(list.size(), at + kListLineEntries);
        for (; at < end; ++at) write_entry(w, list[at]);
        payload += w.str();
        payload += '\n';
      } while (at < list.size());
    }
  };
  write_lists("usr", users,
              [](support::RecordWriter& w, std::uint32_t id) { w.field(id); });
  write_lists("typ", by_type,
              [](support::RecordWriter& w,
                 const std::pair<std::int64_t, std::uint32_t>& entry) {
                w.field(entry.first);
                w.field(entry.second);
              });
  {
    support::RecordWriter w("adj");
    w.field(static_cast<std::int64_t>(edges));
    w.field(static_cast<std::int64_t>(adjacency_digest));
    payload += w.str();
    payload += '\n';
  }
  std::string out(kIndexMagic);
  support::seal(out, payload);
  return out;
}

namespace {

/// The magic and the envelope's length and checksum: the bytes before the
/// image's payload.
constexpr std::size_t kImageHeadBytes =
    kIndexMagic.size() + support::kEnvelopeHeaderBytes;

/// The one reader of an index image, fed its bytes in order: the head,
/// then the payload's lines, each with its '\n'.  Whether the bytes come
/// from memory (`IndexImage::parse`) or stream from the file
/// (`HistoryIndexes::load_image`), it checks in one order: the magic, then
/// the envelope's length and checksum, then the structure, whose first
/// defect in line order is the reason.  So a payload that fails its
/// checksum says so even when one of its lines also fails to parse, and
/// nothing is adopted before its length and checksum match.
class ImageParser {
 public:
  explicit ImageParser(std::string_view head)
      : magic_(head.substr(0, kIndexMagic.size())),
        sealed_(magic_ == kIndexMagic && head.size() == kImageHeadBytes),
        length_(sealed_ ? support::get_le32(head, kIndexMagic.size()) : 0),
        checksum_(sealed_ ? support::get_le32(head, kIndexMagic.size() + 4)
                          : 0),
        hash_(length_) {}

  /// False once more bytes cannot change the verdict: the magic is wrong,
  /// the head is short, or the payload ran past its declared length.
  [[nodiscard]] bool wants_more() const {
    return sealed_ && seen_ <= length_;
  }

  /// Takes the payload's next line, with its '\n' unless it is the last.
  void feed(std::string_view piece) {
    seen_ += piece.size();
    if (seen_ > length_) return;
    hash_.add(piece);
    if (!error_.empty()) return;  // only the checksum is still open
    const bool ended = piece.back() == '\n';
    if (ended) piece.remove_suffix(1);
    try {
      if (stamped_) {
        if (!support::trim(piece).empty()) section(piece);
      } else if (ended) {
        stamped_ = true;
        support::RecordReader stamp(piece);
        img_.epoch = static_cast<std::uint64_t>(stamp.next_int64());
        img_.seq = static_cast<std::uint64_t>(stamp.next_int64());
        img_.instances = stamp.next_uint32();
      }
    } catch (const std::exception& e) {
      error_ = e.what();
    }
  }

  /// The verdict once every byte is in: `out` takes the image, or `error`
  /// the reason and `out` is untouched.
  [[nodiscard]] bool finish(IndexImage& out, std::string& error) {
    if (magic_ != kIndexMagic) {
      error = "bad magic '" + std::string(magic_) + "'";
      return false;
    }
    if (!sealed_ || seen_ != length_ || hash_.value() != checksum_) {
      error = "body checksum mismatch";
      return false;
    }
    // Every token taken lies before any other defect, so a repeat among
    // them is the first one.
    if (const std::optional<std::uint32_t> repeat = img_.tokens.index()) {
      error = "duplicate token '" + std::string(img_.tokens.text(*repeat)) +
              "'";
      return false;
    }
    if (!stamped_) error_ = "missing stamp line";
    if (!error_.empty()) {
      error = error_;
      return false;
    }
    out = std::move(img_);
    return true;
  }

 private:
  /// One line of the sections after the stamp.
  void section(std::string_view line) {
    support::RecordReader r(line);
    if (r.kind() == "tok") {
      // The id table is built once, in `finish`.
      const support::RecordReader::Field token = r.next_field();
      img_.tokens.append(token.escaped ? support::unescape_field(token.text)
                                       : token.text);
      ids_.clear();
      while (!r.exhausted()) ids_.push_back(r.next_uint32());
      img_.postings.add(ids_);
    } else if (r.kind() == "usr") {
      // A long list continues on lines repeating its name.
      std::vector<std::uint32_t>& list = img_.users[r.next_string()];
      while (!r.exhausted()) list.push_back(r.next_uint32());
    } else if (r.kind() == "typ") {
      auto& list = img_.by_type[r.next_string()];
      while (!r.exhausted()) {
        const std::int64_t created = r.next_int64();
        list.emplace_back(created, r.next_uint32());
      }
    } else if (r.kind() == "adj") {
      img_.edges = static_cast<std::uint64_t>(r.next_int64());
      img_.adjacency_digest = static_cast<std::uint64_t>(r.next_int64());
    } else {
      error_ = "unknown section '" + std::string(r.kind()) + "'";
    }
  }

  std::string magic_;
  bool sealed_;
  std::uint32_t length_;
  std::uint32_t checksum_;
  support::EnvelopeChecksum hash_;
  /// Payload bytes fed so far.
  std::uint64_t seen_ = 0;
  bool stamped_ = false;
  /// The first structural defect; later lines only feed the checksum.
  std::string error_;
  IndexImage img_;
  std::vector<std::uint32_t> ids_;
};

}  // namespace

bool IndexImage::parse(std::string_view text, IndexImage& out,
                       std::string& error) {
  ImageParser parser(text.substr(0, kImageHeadBytes));
  std::string_view rest = text.substr(std::min(text.size(), kImageHeadBytes));
  while (parser.wants_more() && !rest.empty()) {
    const std::size_t nl = rest.find('\n');
    const std::size_t size = nl == std::string_view::npos ? rest.size() : nl + 1;
    parser.feed(rest.substr(0, size));
    rest.remove_prefix(size);
  }
  return parser.finish(out, error);
}

// ---- HistoryIndexes --------------------------------------------------------

HistoryIndexes::HistoryIndexes(history::HistoryDb& db) : db_(&db) {}

std::string HistoryIndexes::file_path(const std::string& dir) {
  return (fs::path(dir) / std::string(kIndexFileName)).string();
}

void HistoryIndexes::rebuild() {
  img_ = IndexImage{};
  trigrams_ = TrigramMap{};
  const schema::TaskSchema& schema = db_->schema();
  const std::size_t n = db_->size();
  for (std::size_t i = 0; i < n; ++i) {
    const history::Instance& inst =
        db_->instance(InstanceId(static_cast<std::uint32_t>(i)));
    img_.add_instance(static_cast<std::uint32_t>(i),
                      schema.entity_name(inst.type), inst.name, inst.user,
                      inst.created.micros(), inst.comment,
                      inst.derivation.tool, inst.derivation.inputs);
  }
  trigrams_.extend(img_.tokens);
}

HistoryIndexes::LoadedImage HistoryIndexes::load_image(
    const std::string& dir) {
  LoadedImage loaded;
  IndexImage image;
  try {
    support::FileReader file(file_path(dir));
    ImageParser parser(file.read(kImageHeadBytes));
    while (parser.wants_more()) {
      const std::optional<std::string_view> line = file.line();
      if (!line) break;
      parser.feed(*line);
    }
    if (!parser.finish(image, loaded.error)) return loaded;
  } catch (const support::HistoryError&) {
    loaded.error = "no index file";
    return loaded;
  }
  loaded.trigrams.extend(image.tokens);
  loaded.image = std::move(image);
  return loaded;
}

HistoryIndexes::OpenReport HistoryIndexes::open(
    const std::string& dir, std::uint64_t epoch,
    const std::vector<std::string>& journal_records) {
  return open(load_image(dir), epoch, journal_records);
}

HistoryIndexes::OpenReport HistoryIndexes::open(
    LoadedImage loaded, std::uint64_t epoch,
    const std::vector<std::string>& journal_records) {
  OpenReport rep;
  const auto fall_back = [&](std::string reason) {
    rebuild();
    rep.loaded = false;
    rep.rebuilt = true;
    rep.caught_up = 0;
    rep.reason = std::move(reason);
  };
  if (!loaded.image) {
    fall_back(std::move(loaded.error));
    return rep;
  }
  const IndexImage& image = *loaded.image;
  if (image.epoch != epoch) {
    fall_back("epoch skew (index " + std::to_string(image.epoch) +
              ", store " + std::to_string(epoch) + ")");
    return rep;
  }
  if (image.seq > journal_records.size()) {
    fall_back("index at seq " + std::to_string(image.seq) +
              " but the journal holds " +
              std::to_string(journal_records.size()) + " records");
    return rep;
  }
  img_ = std::move(*loaded.image);
  trigrams_ = std::move(loaded.trigrams);
  try {
    for (std::size_t i = static_cast<std::size_t>(img_.seq);
         i < journal_records.size(); ++i) {
      on_lines(journal_records[i]);
      ++rep.caught_up;
    }
  } catch (const std::exception& e) {
    fall_back(std::string("catch-up failed: ") + e.what());
    return rep;
  }
  if (img_.instances != db_->size()) {
    fall_back("instance count mismatch after catch-up (index " +
              std::to_string(img_.instances) + ", database " +
              std::to_string(db_->size()) + ")");
    return rep;
  }
  rep.loaded = true;
  return rep;
}

void HistoryIndexes::save(const std::string& dir, std::uint64_t epoch,
                          std::uint64_t seq) {
  img_.epoch = epoch;
  img_.seq = seq;
  support::write_file_atomic(file_path(dir), {img_.serialize()});
}

void HistoryIndexes::on_lines(std::string_view lines) {
  for (const std::string_view line : support::Lines(lines)) {
    if (support::trim(line).empty()) continue;
    using history::RecordKind;
    const RecordKind kind = history::kind_of(line);
    if (kind == RecordKind::kInstance || kind == RecordKind::kAnnotate ||
        kind == RecordKind::kQuarantine) {
      img_.fold(history::decode(line));
    }
  }
  trigrams_.extend(img_.tokens);
}

void HistoryIndexes::on_change(const history::Change& change) {
  for (const history::Record& record : change.records) img_.fold(record);
  trigrams_.extend(img_.tokens);
}

void HistoryIndexes::on_rebase(std::uint64_t /*epoch*/, bool replaced) {
  if (replaced) rebuild();
}

std::uint32_t TrigramMap::key(std::string_view trigram) {
  return static_cast<std::uint32_t>(static_cast<unsigned char>(trigram[0]))
             << 16 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(trigram[1]))
             << 8 |
         static_cast<std::uint32_t>(static_cast<unsigned char>(trigram[2]));
}

void TrigramMap::extend(const TokenDictionary& tokens) {
  for (; covered < tokens.size(); ++covered) {
    const auto tid = static_cast<std::uint32_t>(covered);
    const std::string_view tok = tokens.text(tid);
    if (tok.size() < 3) continue;
    for (std::size_t i = 0; i + 3 <= tok.size(); ++i) {
      std::vector<std::uint32_t>& list = lists[key(tok.substr(i, 3))];
      if (list.empty() || list.back() != tid) list.push_back(tid);
    }
  }
}

std::vector<std::uint32_t> HistoryIndexes::matching_tokens(
    const std::string& keyword) const {
  // Every token containing the keyword contains each of its trigrams, so
  // the rarest trigram's token list is a complete candidate set to verify.
  const std::vector<std::uint32_t>* rarest = nullptr;
  for (std::size_t i = 0; i + 3 <= keyword.size(); ++i) {
    const auto it = trigrams_.lists.find(
        TrigramMap::key(std::string_view(keyword).substr(i, 3)));
    if (it == trigrams_.lists.end()) return {};
    if (rarest == nullptr || it->second.size() < rarest->size()) {
      rarest = &it->second;
    }
  }
  std::vector<std::uint32_t> out;
  for (const std::uint32_t tid : *rarest) {
    if (img_.tokens.text(tid).find(keyword) != std::string_view::npos) {
      out.push_back(tid);
    }
  }
  return out;
}

namespace {

using Entry = std::pair<std::int64_t, std::uint32_t>;

struct DateSlice {
  const std::vector<Entry>* list = nullptr;
  std::size_t begin = 0;
  std::size_t end = 0;  // exclusive; walk happens end -> begin
};

/// Clamps one ascending (created, id) list to the cursor and date limits.
DateSlice slice_entries(const std::vector<Entry>& list,
                        const history::QueryFilter& filter,
                        const history::PageCursor& cursor) {
  DateSlice s;
  s.list = &list;
  s.begin = 0;
  if (filter.from) {
    s.begin = static_cast<std::size_t>(
        std::lower_bound(list.begin(), list.end(),
                         Entry(filter.from->micros(), 0)) -
        list.begin());
  }
  auto end_it = std::lower_bound(list.begin(), list.end(),
                                 Entry(cursor.created, cursor.id));
  if (filter.to) {
    const auto to_it = std::upper_bound(
        list.begin(), list.end(),
        Entry(filter.to->micros(),
              std::numeric_limits<std::uint32_t>::max()));
    if (to_it < end_it) end_it = to_it;
  }
  s.end = static_cast<std::size_t>(end_it - list.begin());
  if (s.end < s.begin) s.end = s.begin;
  return s;
}

}  // namespace

std::vector<const std::vector<Entry>*> HistoryIndexes::creation_lists(
    const history::QueryFilter& filter, history::AccessPath path) const {
  std::vector<const std::vector<Entry>*> lists;
  if (path == history::AccessPath::kDate) {
    for (const auto& [name, list] : img_.by_type) lists.push_back(&list);
    return lists;
  }
  for (const schema::EntityTypeId tid :
       db_->schema().concrete_descendants(filter.type)) {
    const auto it = img_.by_type.find(db_->schema().entity_name(tid));
    if (it != img_.by_type.end()) lists.push_back(&it->second);
  }
  return lists;
}

std::optional<std::size_t> HistoryIndexes::estimate(
    const history::QueryFilter& filter, history::AccessPath path) const {
  using history::AccessPath;
  switch (path) {
    case AccessPath::kUser: {
      if (filter.user.empty()) return std::nullopt;
      const auto it = img_.users.find(filter.user);
      return it == img_.users.end() ? std::size_t{0} : it->second.size();
    }
    case AccessPath::kKeyword: {
      const std::string kw = lowercase(filter.keyword);
      // Short keywords can hide inside tokens the trigram map cannot
      // reach; punt rather than under-approximate.
      if (kw.size() < 3 || !indexable_keyword(kw)) return std::nullopt;
      std::size_t total = 0;
      for (const std::uint32_t tid : matching_tokens(kw)) {
        total += img_.postings[tid].size();
      }
      return total;
    }
    case AccessPath::kType:
    case AccessPath::kDate: {
      if (path == AccessPath::kType ? !filter.type.valid()
                                    : !filter.from && !filter.to) {
        return std::nullopt;
      }
      const history::PageCursor top = history::PageCursor::top();
      std::size_t total = 0;
      for (const std::vector<Entry>* list : creation_lists(filter, path)) {
        const DateSlice s = slice_entries(*list, filter, top);
        total += s.end - s.begin;
      }
      return total;
    }
    default:
      return std::nullopt;
  }
}

std::vector<InstanceId> HistoryIndexes::candidates(
    const history::QueryFilter& filter, history::AccessPath path,
    const history::PageCursor& cursor, std::size_t limit) const {
  using history::AccessPath;
  std::vector<InstanceId> out;
  if (limit == 0) return out;
  switch (path) {
    case AccessPath::kUser: {
      const auto it = img_.users.find(filter.user);
      if (it == img_.users.end()) return out;
      const std::vector<std::uint32_t>& list = it->second;
      auto pos = std::lower_bound(list.begin(), list.end(), cursor.id);
      while (pos != list.begin() && out.size() < limit) {
        --pos;
        out.push_back(InstanceId(*pos));
      }
      return out;
    }
    case AccessPath::kKeyword: {
      const std::string kw = lowercase(filter.keyword);
      std::vector<std::span<const std::uint32_t>> lists;
      std::vector<std::size_t> pos;
      for (const std::uint32_t tid : matching_tokens(kw)) {
        const std::span<const std::uint32_t> list = img_.postings[tid];
        const auto p = static_cast<std::size_t>(
            std::lower_bound(list.begin(), list.end(), cursor.id) -
            list.begin());
        if (p > 0) {
          lists.push_back(list);
          pos.push_back(p);
        }
      }
      // Descending k-way merge by id; duplicates (one instance under
      // several matching tokens) surface adjacently and are dropped.
      std::priority_queue<std::pair<std::uint32_t, std::size_t>> heap;
      for (std::size_t i = 0; i < lists.size(); ++i) {
        heap.emplace(lists[i][pos[i] - 1], i);
      }
      while (!heap.empty() && out.size() < limit) {
        const auto [id, which] = heap.top();
        heap.pop();
        if (out.empty() || out.back().value() != id) {
          out.push_back(InstanceId(id));
        }
        if (--pos[which] > 0) {
          heap.emplace(lists[which][pos[which] - 1], which);
        }
      }
      return out;
    }
    case AccessPath::kType:
    case AccessPath::kDate: {
      // Descending k-way merge of the lists' slices by (created, id).
      std::vector<DateSlice> slices;
      for (const std::vector<Entry>* list : creation_lists(filter, path)) {
        const DateSlice s = slice_entries(*list, filter, cursor);
        if (s.end > s.begin) slices.push_back(s);
      }
      std::priority_queue<std::pair<Entry, std::size_t>> heap;
      for (std::size_t i = 0; i < slices.size(); ++i) {
        heap.emplace((*slices[i].list)[slices[i].end - 1], i);
      }
      while (!heap.empty() && out.size() < limit) {
        const auto [entry, which] = heap.top();
        heap.pop();
        out.push_back(InstanceId(entry.second));
        DateSlice& s = slices[which];
        if (--s.end > s.begin) heap.emplace((*s.list)[s.end - 1], which);
      }
      return out;
    }
    default:
      return out;
  }
}

std::optional<std::vector<InstanceId>> HistoryIndexes::name_candidates(
    std::string_view name) const {
  const std::vector<std::string> toks = tokenize(name);
  // A name with no token content ("!!!") cannot be bounded by the token
  // dictionary; let the caller scan.
  if (toks.empty()) return std::nullopt;
  // The maintenance invariant guarantees every instance's *current* name
  // tokens are posted, so a missing token is a hard "no instance".
  std::optional<std::span<const std::uint32_t>> best;
  for (const std::string& tok : toks) {
    const std::optional<std::uint32_t> tid = img_.tokens.find(tok);
    if (!tid) return std::vector<InstanceId>{};
    const std::span<const std::uint32_t> posting = img_.postings[*tid];
    if (!best || posting.size() < best->size()) best = posting;
  }
  std::vector<InstanceId> out;
  out.reserve(best->size());
  for (const std::uint32_t id : *best) out.push_back(InstanceId(id));
  return out;
}

}  // namespace herc::index
