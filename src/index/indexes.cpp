#include "index/indexes.hpp"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <limits>
#include <queue>
#include <span>

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
                              const history::Derivation& derivation) {
  add_tokens(id, name);
  add_tokens(id, comment);
  users[std::string(user)].push_back(id);
  by_type[std::string(type_name)].emplace_back(created, id);
  by_date.emplace_back(created, id);
  const auto fold_edge = [this, id](InstanceId src) {
    ++edges;
    const std::string edge =
        std::to_string(src.value()) + ">" + std::to_string(id) + ";";
    adjacency_digest = support::fnv1a_append(adjacency_digest, edge);
  };
  if (derivation.tool.valid()) fold_edge(derivation.tool);
  for (const InstanceId in : derivation.inputs) fold_edge(in);
  ++instances;
}

void IndexImage::fold(const history::Record& record) {
  if (const auto* inst = std::get_if<history::InstanceRecord>(&record)) {
    add_instance(inst->id.value(), inst->type, inst->name, inst->user,
                 inst->created.micros(), inst->comment, inst->derivation);
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
  std::string body;
  for (std::uint32_t t = 0; t < tokens.size(); ++t) {
    support::RecordWriter w("tok");
    w.field(tokens.text(t));
    for (const std::uint32_t id : postings[t]) w.field(id);
    body += w.str();
    body += '\n';
  }
  // Map sections in sorted key order, so the same image always serializes
  // to the same bytes.
  std::vector<std::string> user_names;
  user_names.reserve(users.size());
  for (const auto& [name, list] : users) user_names.push_back(name);
  std::sort(user_names.begin(), user_names.end());
  for (const std::string& name : user_names) {
    support::RecordWriter w("usr");
    w.field(name);
    for (const std::uint32_t id : users.at(name)) w.field(id);
    body += w.str();
    body += '\n';
  }
  std::vector<std::string> type_names;
  type_names.reserve(by_type.size());
  for (const auto& [name, list] : by_type) type_names.push_back(name);
  std::sort(type_names.begin(), type_names.end());
  for (const std::string& name : type_names) {
    support::RecordWriter w("typ");
    w.field(name);
    for (const auto& [created, id] : by_type.at(name)) {
      w.field(created);
      w.field(id);
    }
    body += w.str();
    body += '\n';
  }
  {
    support::RecordWriter w("adj");
    w.field(static_cast<std::int64_t>(edges));
    w.field(static_cast<std::int64_t>(adjacency_digest));
    body += w.str();
    body += '\n';
  }
  support::RecordWriter header(kIndexMagic);
  header.field(static_cast<std::int64_t>(epoch));
  header.field(static_cast<std::int64_t>(seq));
  header.field(instances);
  header.field(static_cast<std::int64_t>(support::fnv1a(body)));
  return header.str() + "\n" + body;
}

bool IndexImage::parse(std::string_view text, IndexImage& out,
                       std::string& error) {
  IndexImage img;
  const std::size_t nl = text.find('\n');
  if (nl == std::string_view::npos) {
    error = "missing header line";
    return false;
  }
  const std::string_view header = text.substr(0, nl);
  const std::string_view body = text.substr(nl + 1);
  try {
    support::RecordReader rec(header);
    if (rec.kind() != kIndexMagic) {
      error = "bad magic '" + std::string(rec.kind()) + "'";
      return false;
    }
    img.epoch = static_cast<std::uint64_t>(rec.next_int64());
    img.seq = static_cast<std::uint64_t>(rec.next_int64());
    img.instances = rec.next_uint32();
    const auto checksum = static_cast<std::uint64_t>(rec.next_int64());
    if (support::fnv1a(body) != checksum) {
      error = "body checksum mismatch";
      return false;
    }
    // Nearly every line is a token: size the dictionary once, up front.
    const auto lines =
        static_cast<std::size_t>(std::count(body.begin(), body.end(), '\n'));
    img.tokens.reserve(lines);
    img.postings.reserve(lines);
    std::vector<std::uint32_t> ids;
    for (const std::string_view line : support::Lines(body)) {
      if (support::trim(line).empty()) continue;
      support::RecordReader r(line);
      if (r.kind() == "tok") {
        const std::string tok = r.next_string();
        if (!img.tokens.intern(tok).second) {
          error = "duplicate token '" + tok + "'";
          return false;
        }
        ids.clear();
        while (!r.exhausted()) ids.push_back(r.next_uint32());
        img.postings.add(ids);
      } else if (r.kind() == "usr") {
        std::vector<std::uint32_t>& list = img.users[r.next_string()];
        while (!r.exhausted()) list.push_back(r.next_uint32());
      } else if (r.kind() == "typ") {
        auto& list = img.by_type[r.next_string()];
        while (!r.exhausted()) {
          const std::int64_t created = r.next_int64();
          list.emplace_back(created, r.next_uint32());
        }
      } else if (r.kind() == "adj") {
        img.edges = static_cast<std::uint64_t>(r.next_int64());
        img.adjacency_digest = static_cast<std::uint64_t>(r.next_int64());
      } else {
        error = "unknown section '" + std::string(r.kind()) + "'";
        return false;
      }
    }
  } catch (const std::exception& e) {
    error = e.what();
    return false;
  }
  for (const auto& [name, list] : img.by_type) {
    img.by_date.insert(img.by_date.end(), list.begin(), list.end());
  }
  std::sort(img.by_date.begin(), img.by_date.end());
  out = std::move(img);
  return true;
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
                      inst.created.micros(), inst.comment, inst.derivation);
  }
  trigrams_.extend(img_.tokens);
}

HistoryIndexes::LoadedImage HistoryIndexes::load_image(
    const std::string& dir) {
  LoadedImage loaded;
  const std::optional<std::string> text = support::read_file(file_path(dir));
  if (!text) {
    loaded.error = "no index file";
    return loaded;
  }
  IndexImage image;
  if (!IndexImage::parse(*text, image, loaded.error)) return loaded;
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
    case AccessPath::kType: {
      if (!filter.type.valid()) return std::nullopt;
      const history::PageCursor top = history::PageCursor::top();
      std::size_t total = 0;
      for (const schema::EntityTypeId tid :
           db_->schema().concrete_descendants(filter.type)) {
        const auto it = img_.by_type.find(db_->schema().entity_name(tid));
        if (it == img_.by_type.end()) continue;
        const DateSlice s = slice_entries(it->second, filter, top);
        total += s.end - s.begin;
      }
      return total;
    }
    case AccessPath::kDate: {
      if (!filter.from && !filter.to) return std::nullopt;
      const DateSlice s =
          slice_entries(img_.by_date, filter, history::PageCursor::top());
      return s.end - s.begin;
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
    case AccessPath::kType: {
      std::vector<DateSlice> slices;
      for (const schema::EntityTypeId tid :
           db_->schema().concrete_descendants(filter.type)) {
        const auto it = img_.by_type.find(db_->schema().entity_name(tid));
        if (it == img_.by_type.end()) continue;
        const DateSlice s = slice_entries(it->second, filter, cursor);
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
    case AccessPath::kDate: {
      const DateSlice s = slice_entries(img_.by_date, filter, cursor);
      std::size_t at = s.end;
      while (at > s.begin && out.size() < limit) {
        --at;
        out.push_back(InstanceId((*s.list)[at].second));
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
