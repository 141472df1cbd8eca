#include "relay/frame_wal.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <tuple>
#include <utility>

#include "core/wire.h"
#include "obs/journal.h"
#include "util/check.h"

namespace ldp::relay {

namespace {

using internal_wire::LoadLittleEndian;
using internal_wire::PutU16;
using internal_wire::PutU32;
using internal_wire::PutU64;
using internal_wire::StoreLittleEndian;

// A record's length field larger than this means the framing is garbage,
// not merely torn: DATA payloads are bounded at 4 MiB by the wire protocol
// and every other record type is tiny.
constexpr uint32_t kMaxWalRecordPayload = 8u << 20;

// A record's u8 type, u32 len and u32 crc32(type || len || payload).
using RecordHead = std::array<char, kWalRecordHeaderBytes>;

RecordHead EncodeRecordHead(WalRecordType type, const void* payload,
                            size_t size) {
  RecordHead head;
  head[0] = static_cast<char>(type);
  StoreLittleEndian(head.data() + 1, static_cast<uint32_t>(size));
  StoreLittleEndian(head.data() + 5,
                    Crc32(payload, size, Crc32(head.data(), 5)));
  return head;
}

// Writes `iov[0..count)` to `fd` in one writev, advancing past a short
// write and retrying (disk-full aside, a regular-file write only shortens
// on signals).
void WriteFully(int fd, iovec* iov, int count, const char* failure) {
  while (count > 0) {
    const ssize_t wrote = ::writev(fd, iov, count);
    LDP_CHECK_MSG(wrote > 0, failure);
    size_t left = static_cast<size_t>(wrote);
    while (count > 0 && left >= iov->iov_len) {
      left -= iov->iov_len;
      ++iov;
      --count;
    }
    if (count > 0) {
      iov->iov_base = static_cast<char*>(iov->iov_base) + left;
      iov->iov_len -= left;
    }
  }
}

std::string WalFileName(uint32_t epoch, uint64_t ordinal,
                        uint32_t generation) {
  char name[96];
  std::snprintf(name, sizeof(name),
                "wal-e%05u-o%05" PRIu64 "-g%05u.ldpw", epoch, ordinal,
                generation);
  return name;
}

// One shard attempt as reconstructed from its log file.
struct Instance {
  uint32_t epoch = 0;
  uint64_t ordinal = 0;
  uint32_t generation = 0;
  std::string path;
  std::string reporter_id;  // empty = anonymous
  std::string header_bytes;
  // The whole log file as read; DATA payloads are (offset, length) slices
  // of it, in append order.
  std::string bytes;
  std::vector<std::pair<size_t, size_t>> chunks;
  uint64_t data_bytes = 0;
  bool closed = false;
  uint64_t close_seq = 0;
  bool abandoned = false;
  bool corrupt = false;
  // Set by ReplayInstances when this instance became a resumed shard; the
  // adopting FrameWal appends to exactly this file under that shard id.
  bool resumed = false;
  size_t session_shard = 0;

  // Feed-order key; close order uses close_seq instead.
  std::tuple<uint32_t, uint64_t, uint32_t> key() const {
    return {epoch, ordinal, generation};
  }
};

// Reads all of `path` into `bytes`: one read(2) for the body, sized by
// fstat, then one that returns 0 at EOF (the spare byte lets it see a file
// that grew since). A failed read is an IoError, never a short file:
// replay would take that for a torn tail and truncate acknowledged records.
Status ReadWholeFile(const std::string& path, std::string* bytes) {
  const int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Status::IoError("cannot open WAL file " + path);
  struct stat info;
  if (::fstat(fd, &info) != 0) {
    ::close(fd);
    return Status::IoError("cannot stat WAL file " + path);
  }
  bytes->resize(static_cast<size_t>(info.st_size) + 1);
  size_t got = 0;
  for (;;) {
    if (got == bytes->size()) bytes->resize(2 * bytes->size());
    const ssize_t n = ::read(fd, &(*bytes)[got], bytes->size() - got);
    if (n == 0) break;
    if (n < 0) {
      if (errno == EINTR) continue;
      const std::string reason = std::strerror(errno);
      ::close(fd);
      return Status::IoError("read error on WAL file " + path + ": " +
                             reason);
    }
    got += static_cast<size_t>(n);
  }
  ::close(fd);
  bytes->resize(got);
  return Status::OK();
}

// Parses one WAL file into an Instance. A torn tail (incomplete record at
// EOF — the normal crash artifact) stops the parse and, with `truncate`,
// is cut off in place so the file can be appended to again; a *complete*
// record that fails its CRC, an absurd length, or a malformed fixed field
// marks the instance corrupt — its framing can't be trusted.
Status ReadInstance(const std::string& path, bool truncate,
                    Instance* instance, uint64_t* truncated_tails,
                    uint64_t* records, WalReplaySummary* summary) {
  LDP_RETURN_IF_ERROR(ReadWholeFile(path, &instance->bytes));
  const std::string& bytes = instance->bytes;
  if (bytes.size() < kWalFileHeaderBytes) {
    // The file header itself was torn: an attempt that never got its first
    // record. Nothing to replay.
    ++*truncated_tails;
    instance->abandoned = true;
    return Status::OK();
  }
  if (LoadLittleEndian<uint32_t>(bytes.data()) != kWalMagic ||
      LoadLittleEndian<uint16_t>(bytes.data() + 4) != kWalVersion) {
    instance->corrupt = true;
    return Status::OK();
  }
  const uint32_t epoch = LoadLittleEndian<uint32_t>(bytes.data() + 6);
  const uint64_t ordinal = LoadLittleEndian<uint64_t>(bytes.data() + 10);
  if (epoch != instance->epoch || ordinal != instance->ordinal) {
    // The name (our only source of `generation`) disagrees with the file.
    instance->corrupt = true;
    return Status::OK();
  }

  size_t cursor = kWalFileHeaderBytes;
  while (cursor < bytes.size()) {
    if (bytes.size() - cursor < kWalRecordHeaderBytes) break;  // torn tail
    const uint8_t type = static_cast<uint8_t>(bytes[cursor]);
    const char* head = bytes.data() + cursor;
    const uint32_t length = LoadLittleEndian<uint32_t>(head + 1);
    const uint32_t stored_crc = LoadLittleEndian<uint32_t>(head + 5);
    if (length > kMaxWalRecordPayload) {
      instance->corrupt = true;
      return Status::OK();
    }
    if (bytes.size() - cursor - kWalRecordHeaderBytes < length) {
      break;  // torn tail: the payload never finished landing
    }
    const char* payload = bytes.data() + cursor + kWalRecordHeaderBytes;
    uint32_t crc = Crc32(bytes.data() + cursor, 5);  // type || len
    crc = Crc32(payload, length, crc);
    if (crc != stored_crc) {
      instance->corrupt = true;
      return Status::OK();
    }
    switch (static_cast<WalRecordType>(type)) {
      case WalRecordType::kHeader: {
        // u16 reporter-id length, the id, then the stream header.
        if (!instance->header_bytes.empty() || length < 2 ||
            static_cast<size_t>(2) + LoadLittleEndian<uint16_t>(payload) >
                length) {
          instance->corrupt = true;
          return Status::OK();
        }
        const uint16_t id_length = LoadLittleEndian<uint16_t>(payload);
        instance->reporter_id.assign(payload + 2, id_length);
        instance->header_bytes.assign(payload + 2 + id_length,
                                      length - 2 - id_length);
        break;
      }
      case WalRecordType::kData:
        instance->chunks.emplace_back(cursor + kWalRecordHeaderBytes, length);
        instance->data_bytes += length;
        break;
      case WalRecordType::kClose:
        if (length != 8) {
          instance->corrupt = true;
          return Status::OK();
        }
        instance->closed = true;
        instance->close_seq = LoadLittleEndian<uint64_t>(payload);
        break;
      case WalRecordType::kAbandon:
        instance->abandoned = true;
        break;
      default:
        instance->corrupt = true;
        return Status::OK();
    }
    ++*records;
    if (summary != nullptr) ++summary->records;
    cursor += kWalRecordHeaderBytes + length;
    if (instance->closed || instance->abandoned) break;  // terminal records
  }
  if (cursor < bytes.size()) {
    ++*truncated_tails;
    if (truncate && ::truncate(path.c_str(), static_cast<off_t>(cursor)) !=
                        0) {
      return Status::IoError("cannot truncate torn WAL tail in " + path);
    }
  }
  return Status::OK();
}

// Loads every wal-*.ldpw under `dir`, sorted by (epoch, ordinal,
// generation). A missing directory scans as empty.
Status ScanWalDir(const std::string& dir, bool truncate,
                  std::vector<Instance>* instances,
                  WalReplaySummary* summary) {
  DIR* handle = ::opendir(dir.c_str());
  if (handle == nullptr) {
    if (errno == ENOENT) return Status::OK();
    return Status::IoError("cannot open WAL directory " + dir);
  }
  std::vector<Instance> found;
  while (struct dirent* entry = ::readdir(handle)) {
    unsigned epoch = 0;
    unsigned long long ordinal = 0;
    unsigned generation = 0;
    char suffix[8] = {0};
    if (std::sscanf(entry->d_name, "wal-e%u-o%llu-g%u.ldp%4s", &epoch,
                    &ordinal, &generation, suffix) != 4 ||
        std::strcmp(suffix, "w") != 0) {
      continue;  // not ours
    }
    Instance instance;
    instance.epoch = static_cast<uint32_t>(epoch);
    instance.ordinal = static_cast<uint64_t>(ordinal);
    instance.generation = static_cast<uint32_t>(generation);
    instance.path = dir + "/" + entry->d_name;
    found.push_back(std::move(instance));
  }
  ::closedir(handle);
  std::sort(found.begin(), found.end(),
            [](const Instance& a, const Instance& b) {
              return a.key() < b.key();
            });
  for (Instance& instance : found) {
    uint64_t tails = 0;
    uint64_t records = 0;
    LDP_RETURN_IF_ERROR(ReadInstance(instance.path, truncate, &instance,
                                     &tails, &records, summary));
    if (summary != nullptr) summary->truncated_tails += tails;
    instances->push_back(std::move(instance));
  }
  return Status::OK();
}

// Feeds the scanned instances back into a fresh session, reproducing the
// pre-crash merge order exactly. See the header comment for the rules;
// `max_close_seq` (optional) reports the largest replayed close sequence
// so continued appends keep the counter monotone.
//
// One deliberate gap: epoch advances are implied by shard files, so an
// operator advance (ReportServer::AdvanceEpoch) that no shard in the new
// epoch followed before the crash is not durable — the operator advances
// the restarted collector again.
Status ReplayInstances(std::vector<Instance>* instances,
                       api::ServerSession* session,
                       const stream::StreamHeader* expected,
                       obs::EventJournal* journal, WalReplaySummary* summary,
                       uint64_t* max_close_seq) {
  uint32_t final_epoch = 0;
  for (const Instance& instance : *instances) {
    final_epoch = std::max(final_epoch, instance.epoch);
  }
  // Highest non-corrupt generation per (epoch, ordinal): an unclosed,
  // unmarked instance that a newer generation superseded was implicitly
  // abandoned (the server reused the ordinal, so the old attempt died).
  std::map<std::pair<uint32_t, uint64_t>, uint32_t> highest_generation;
  for (const Instance& instance : *instances) {
    if (instance.corrupt) continue;
    auto& slot = highest_generation[{instance.epoch, instance.ordinal}];
    slot = std::max(slot, instance.generation);
  }

  struct Fed {
    const Instance* instance;
    size_t shard;
  };
  size_t index = 0;
  while (index < instances->size()) {
    const uint32_t epoch = (*instances)[index].epoch;
    while (session->current_epoch() < epoch) {
      LDP_RETURN_IF_ERROR(session->AdvanceEpoch());
    }
    std::vector<Fed> closed;
    for (; index < instances->size() && (*instances)[index].epoch == epoch;
         ++index) {
      Instance& instance = (*instances)[index];
      if (instance.corrupt) {
        ++summary->shards_corrupt;
        if (journal != nullptr) {
          journal->Record(obs::EventKind::kWalCorrupt, instance.ordinal,
                          instance.epoch);
        }
        continue;
      }
      if (instance.abandoned || instance.header_bytes.empty()) continue;
      const bool is_resume =
          !instance.closed && epoch == final_epoch &&
          instance.generation ==
              highest_generation[{instance.epoch, instance.ordinal}];
      if (!instance.closed && !is_resume) continue;  // implicitly abandoned
      if (expected != nullptr) {
        Result<stream::StreamHeader> peer =
            stream::DecodeStreamHeader(instance.header_bytes);
        const Status compatible =
            peer.ok() ? stream::CheckHeadersCompatible(*expected, peer.value())
                      : peer.status();
        if (!compatible.ok()) {
          ++summary->shards_corrupt;
          if (journal != nullptr) {
            journal->Record(obs::EventKind::kWalCorrupt, instance.ordinal,
                            instance.epoch);
          }
          continue;
        }
      }
      // Re-opening restores the reporter's idempotent per-epoch charge; a
      // refusal here means the log asks for spend the budget cannot cover
      // (tampering, or a mismatched session) — poison that shard alone.
      Result<size_t> opened = session->OpenShard(instance.reporter_id);
      if (!opened.ok()) {
        ++summary->shards_corrupt;
        if (journal != nullptr) {
          journal->Record(obs::EventKind::kWalCorrupt, instance.ordinal,
                          instance.epoch);
        }
        continue;
      }
      const size_t shard = opened.value();
      Status fed = session->Feed(shard, instance.header_bytes);
      for (const auto& [offset, length] : instance.chunks) {
        if (!fed.ok()) break;
        fed = session->Feed(shard, instance.bytes.data() + offset, length);
        ++summary->frames_replayed;
        summary->bytes_replayed += length;
      }
      if (!fed.ok() && !instance.closed) {
        // The crash interrupted a stream that was already poisoning its
        // shard; the live path would have abandoned it.
        (void)session->AbandonShard(shard);
        ++summary->shards_corrupt;
        if (journal != nullptr) {
          journal->Record(obs::EventKind::kWalCorrupt, instance.ordinal,
                          instance.epoch);
        }
        continue;
      }
      if (instance.closed) {
        closed.push_back({&instance, shard});
      } else {
        summary->resume_shards[instance.ordinal] =
            net::ResumedShard{shard, instance.data_bytes};
        instance.resumed = true;
        instance.session_shard = shard;
        ++summary->shards_resumed;
      }
    }
    // Close in the exact order the merge barrier chose pre-crash — the
    // step that keeps the replayed session bit-identical.
    std::sort(closed.begin(), closed.end(), [](const Fed& a, const Fed& b) {
      return a.instance->close_seq < b.instance->close_seq;
    });
    for (const Fed& fed : closed) {
      // A shard the original run closed as discarded replays as discarded:
      // same bytes, same verdict. The status is not an error here.
      (void)session->CloseShard(fed.shard);
      ++summary->shards_replayed;
      if (max_close_seq != nullptr) {
        *max_close_seq = std::max(*max_close_seq, fed.instance->close_seq);
      }
      if (epoch == final_epoch) {
        summary->completed_ordinals.insert(fed.instance->ordinal);
      }
      if (journal != nullptr) {
        journal->Record(obs::EventKind::kWalReplay, fed.instance->ordinal,
                        epoch);
      }
    }
  }
  return Status::OK();
}

}  // namespace

uint32_t Crc32(const void* data, size_t size, uint32_t seed) {
  // IEEE 802.3 reflected polynomial, slicing-by-8: tables[k][b] is the CRC
  // register after byte b and then k zero bytes, so one 8-byte step is
  // eight independent lookups instead of a chain of eight.
  static const auto tables = [] {
    std::array<std::array<uint32_t, 256>, 8> t{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      t[0][i] = crc;
    }
    for (size_t k = 1; k < 8; ++k) {
      for (uint32_t i = 0; i < 256; ++i) {
        t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xffu];
      }
    }
    return t;
  }();
  uint32_t crc = ~seed;
  const char* bytes = static_cast<const char*>(data);
  for (; size >= 8; bytes += 8, size -= 8) {
    const uint32_t low = crc ^ LoadLittleEndian<uint32_t>(bytes);
    const uint32_t high = LoadLittleEndian<uint32_t>(bytes + 4);
    crc = tables[7][low & 0xffu] ^ tables[6][(low >> 8) & 0xffu] ^
          tables[5][(low >> 16) & 0xffu] ^ tables[4][low >> 24] ^
          tables[3][high & 0xffu] ^ tables[2][(high >> 8) & 0xffu] ^
          tables[1][(high >> 16) & 0xffu] ^ tables[0][high >> 24];
  }
  for (; size > 0; ++bytes, --size) {
    crc = (crc >> 8) ^
          tables[0][(crc ^ static_cast<unsigned char>(*bytes)) & 0xffu];
  }
  return ~crc;
}

Status ReplayWalDir(const std::string& dir, api::ServerSession* session,
                    const stream::StreamHeader* expected,
                    obs::EventJournal* journal, WalReplaySummary* summary) {
  WalReplaySummary local;
  if (summary == nullptr) summary = &local;
  std::vector<Instance> instances;
  LDP_RETURN_IF_ERROR(ScanWalDir(dir, /*truncate=*/true, &instances,
                                 summary));
  return ReplayInstances(&instances, session, expected, journal, summary,
                         nullptr);
}

Result<WalDirPeek> PeekWalDir(const std::string& dir) {
  std::vector<Instance> instances;
  WalReplaySummary summary;
  LDP_RETURN_IF_ERROR(ScanWalDir(dir, /*truncate=*/false, &instances,
                                 &summary));
  WalDirPeek peek;
  for (const Instance& instance : instances) {
    if (instance.corrupt || instance.header_bytes.empty()) continue;
    if (peek.header_bytes.empty()) peek.header_bytes = instance.header_bytes;
    peek.epochs = std::max(peek.epochs, instance.epoch + 1);
  }
  if (peek.header_bytes.empty()) {
    return Status::NotFound("no replayable WAL shard in " + dir);
  }
  return peek;
}

FrameWal::FrameWal(std::string dir, Options options)
    : dir_(std::move(dir)),
      options_(options),
      metrics_(obs::WalMetrics::ForRegistry(options.metrics)) {}

FrameWal::~FrameWal() {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const auto& [shard, fd] : fds_) ::close(fd);
  fds_.clear();
}

Result<std::unique_ptr<FrameWal>> FrameWal::Open(const std::string& dir,
                                                 api::ServerSession* session,
                                                 Options options,
                                                 WalReplaySummary* summary) {
  if (session == nullptr) {
    return Status::InvalidArgument("frame WAL needs a session");
  }
  if (::mkdir(dir.c_str(), 0775) != 0 && errno != EEXIST) {
    return Status::IoError("cannot create WAL directory " + dir);
  }
  WalReplaySummary local;
  if (summary == nullptr) summary = &local;
  std::vector<Instance> instances;
  LDP_RETURN_IF_ERROR(ScanWalDir(dir, /*truncate=*/true, &instances,
                                 summary));
  uint64_t max_close_seq = 0;
  LDP_RETURN_IF_ERROR(ReplayInstances(&instances, session, options.expected,
                                      options.journal, summary,
                                      &max_close_seq));
  std::unique_ptr<FrameWal> wal(new FrameWal(dir, options));
  wal->next_close_seq_ = summary->shards_replayed > 0 ? max_close_seq + 1 : 0;
  for (const Instance& instance : instances) {
    auto& slot = wal->next_generation_[{instance.epoch, instance.ordinal}];
    slot = std::max(slot, instance.generation + 1);
  }
  // Adopt the files behind resumed shards: their next DATA records append
  // where the pre-crash log left off (the torn tail is already truncated).
  for (const Instance& instance : instances) {
    if (!instance.resumed) continue;
    const int fd =
        ::open(instance.path.c_str(), O_WRONLY | O_APPEND | O_CLOEXEC);
    if (fd < 0) {
      return Status::IoError("cannot reopen WAL file " + instance.path);
    }
    wal->fds_[instance.session_shard] = fd;
  }
  if (wal->metrics_.enabled()) {
    wal->metrics_.replayed_frames->Add(summary->frames_replayed);
    wal->metrics_.replayed_bytes->Add(summary->bytes_replayed);
    wal->metrics_.replayed_shards->Add(summary->shards_replayed);
    wal->metrics_.resumed_shards->Add(summary->shards_resumed);
    wal->metrics_.torn_tails->Add(summary->truncated_tails);
    wal->metrics_.corrupt_shards->Add(summary->shards_corrupt);
  }
  return wal;
}

void FrameWal::AppendRecord(int fd, const RecordHead& head,
                            const void* payload, size_t size,
                            uint64_t started_ns) {
  // One writev per record: a SIGKILL can tear only the final record, which
  // replay truncates away.
  iovec iov[2] = {{const_cast<char*>(head.data()), head.size()},
                  {const_cast<void*>(payload), size}};
  WriteFully(fd, iov, size > 0 ? 2 : 1,
             "WAL append failed — refusing to ack frames that are not "
             "durable");
  if (options_.fsync) ::fsync(fd);
  if (metrics_.enabled()) {
    metrics_.records->Increment();
    metrics_.bytes->Add(kWalRecordHeaderBytes + size);
    metrics_.append_us->Observe((obs::SteadyNowNs() - started_ns) / 1000);
  }
}

void FrameWal::OnShardOpen(size_t shard, uint64_t ordinal, uint32_t epoch,
                           const std::string& reporter_id,
                           const std::string& header_bytes) {
  std::lock_guard<std::mutex> lock(mutex_);
  const uint32_t generation = next_generation_[{epoch, ordinal}]++;
  const std::string path = dir_ + "/" + WalFileName(epoch, ordinal,
                                                    generation);
  const int fd = ::open(path.c_str(),
                        O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
  LDP_CHECK_MSG(fd >= 0, "cannot create WAL file");
  // File header first, in its own write: a tear between header and first
  // record leaves a truncated-header file, which replays as an empty
  // attempt.
  std::string head;
  PutU32(&head, kWalMagic);
  PutU16(&head, kWalVersion);
  PutU32(&head, epoch);
  PutU64(&head, ordinal);
  iovec file_head = {head.data(), head.size()};
  WriteFully(fd, &file_head, 1, "WAL file header write failed");
  const uint64_t started_ns = metrics_.enabled() ? obs::SteadyNowNs() : 0;
  std::string open_payload;
  PutU16(&open_payload, static_cast<uint16_t>(reporter_id.size()));
  open_payload.append(reporter_id);
  open_payload.append(header_bytes);
  AppendRecord(fd,
               EncodeRecordHead(WalRecordType::kHeader, open_payload.data(),
                                open_payload.size()),
               open_payload.data(), open_payload.size(), started_ns);
  fds_[shard] = fd;
}

void FrameWal::OnShardData(size_t shard, const char* data, size_t size) {
  // The CRC is nearly all of an append's cost and depends on nothing the
  // mutex guards, so it runs before the lock: shards CRC concurrently and
  // serialize only on the fd lookup and the write.
  const uint64_t started_ns = metrics_.enabled() ? obs::SteadyNowNs() : 0;
  const RecordHead head = EncodeRecordHead(WalRecordType::kData, data, size);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(shard);
  if (it == fds_.end()) return;
  AppendRecord(it->second, head, data, size, started_ns);
}

void FrameWal::OnShardClose(size_t shard) {
  const uint64_t started_ns = metrics_.enabled() ? obs::SteadyNowNs() : 0;
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(shard);
  if (it == fds_.end()) return;
  // close_seq is assigned under the lock, so this 8-byte CRC is too.
  std::string payload;
  PutU64(&payload, next_close_seq_++);
  AppendRecord(it->second,
               EncodeRecordHead(WalRecordType::kClose, payload.data(),
                                payload.size()),
               payload.data(), payload.size(), started_ns);
  ::close(it->second);
  fds_.erase(it);
}

void FrameWal::OnShardAbandon(size_t shard) {
  const uint64_t started_ns = metrics_.enabled() ? obs::SteadyNowNs() : 0;
  const RecordHead head = EncodeRecordHead(WalRecordType::kAbandon, nullptr,
                                           0);
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = fds_.find(shard);
  if (it == fds_.end()) return;
  AppendRecord(it->second, head, nullptr, 0, started_ns);
  ::close(it->second);
  fds_.erase(it);
}

}  // namespace ldp::relay
