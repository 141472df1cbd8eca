// FrameWal: per-shard write-ahead durability for a networked collector.
//
// The collector's crash-safety problem is narrow: reporter randomness must
// never be re-drawn (re-randomization is a privacy leak, PAPER.md), so a
// crashed collector cannot ask devices to "just run the campaign again" —
// it must reconstruct exactly the state it had acknowledged. The inputs it
// acknowledged are bytes: the validated HELLO header and the accepted DATA
// payloads of each shard, plus the order shards merged in. So the WAL
// journals exactly those, upstream of ServerSession::Feed, one log file per
// shard attempt:
//
//   wal-e<epoch>-o<ordinal>-g<generation>.ldpw
//     u32 magic 'LDPW', u16 version, u32 epoch, u64 ordinal        (header)
//     then records:  u8 type, u32 len, u32 crc32(type||len||payload),
//                    payload
//       type 1  shard open: u16 reporter-id length, the reporter id, then
//               the stream-header bytes (the HELLO header)
//       type 2  accepted DATA payload (one record per DATA message)
//       type 3  close, payload = u64 close_seq (global merge order)
//       type 4  abandon (the shard contributed nothing)
//
// The reporter id rides in the log because replay must restore the
// per-reporter privacy ledger exactly: re-opening a shard charges the same
// (reporter, epoch) cell the live run charged, and the idempotent charge
// makes replay-after-replay exact rather than double-spending.
//
// `generation` disambiguates ordinal reuse (ad hoc mode may stream the
// same ordinal several times per epoch); `close_seq` is a single counter
// across the whole log so replay can reproduce the exact merge order the
// barrier chose, which is what keeps the replayed session bit-identical.
//
// Replay (FrameWal::Open on a non-empty directory) distinguishes two kinds
// of damage:
//   - a torn tail — an incomplete record at EOF, the normal crash artifact
//     of an interrupted write — is truncated away; the shard resumes from
//     its last complete record;
//   - a *complete* record whose CRC fails (or whose length is absurd) means
//     the file's framing can no longer be trusted: that shard alone is
//     poisoned (skipped, counted), every other shard replays normally.
//
// Shards the crash left open become resume entries: the restarted server
// re-attaches a reporter's HELLO to the replayed shard and tells it how
// many post-header bytes are already durable (net/protocol.h HELLO_OK).
//
// Durability scope: each record is one ::writev (its 9-byte head and the
// caller's payload, uncopied), so a process crash (SIGKILL) loses at most
// the torn tail. Machine-crash durability needs Options::fsync, at a large
// per-record cost.
//
// Concurrency: a DATA record's CRC is computed before the WAL mutex, so
// shards CRC their payloads in parallel and serialize only on the fd
// lookup and the write. `ldp_wal_append_us` therefore times a DATA record
// from CRC start to write end, lock wait included. The close record's CRC
// covers close_seq, which is assigned under the mutex, so it stays there.

#ifndef LDP_RELAY_FRAME_WAL_H_
#define LDP_RELAY_FRAME_WAL_H_

#include <array>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "api/server_session.h"
#include "net/report_server.h"
#include "obs/metrics.h"
#include "stream/report_stream.h"
#include "util/result.h"
#include "util/status.h"

namespace ldp::obs {
class EventJournal;
}  // namespace ldp::obs

namespace ldp::relay {

/// CRC-32 (IEEE 802.3, reflected), slicing-by-8. Crc32("123456789") ==
/// 0xCBF43926; chaining through `seed` equals one pass over the
/// concatenation.
uint32_t Crc32(const void* data, size_t size, uint32_t seed = 0);

/// 'LDPW' little-endian.
inline constexpr uint32_t kWalMagic = 0x5750444cu;
/// Version 2 prefixes the kHeader record with the reporter id. It is the
/// only version replayed; any other counts as a corrupt log.
inline constexpr uint16_t kWalVersion = 2;

/// u8 type + u32 len + u32 crc.
inline constexpr size_t kWalRecordHeaderBytes = 9;
/// u32 magic + u16 version + u32 epoch + u64 ordinal.
inline constexpr size_t kWalFileHeaderBytes = 18;

enum class WalRecordType : uint8_t {
  kHeader = 1,
  kData = 2,
  kClose = 3,
  kAbandon = 4,
};

/// What a replay reconstructed — the restarted server's starting state.
struct WalReplaySummary {
  uint64_t shards_replayed = 0;  ///< Closed pre-crash, fed + closed again.
  uint64_t shards_resumed = 0;   ///< Open at the crash, left open to resume.
  uint64_t shards_corrupt = 0;   ///< Poisoned by a CRC/framing failure.
  uint64_t records = 0;          ///< Valid records read.
  uint64_t frames_replayed = 0;  ///< DATA records fed back to the session.
  uint64_t bytes_replayed = 0;   ///< DATA payload bytes fed back.
  uint64_t truncated_tails = 0;  ///< Torn tails cut off.
  /// Ordinal -> replayed open shard, for ReportServerOptions::resume_shards.
  std::unordered_map<uint64_t, net::ResumedShard> resume_shards;
  /// Ordinals already merged into the final epoch, for
  /// ReportServerOptions::completed_ordinals.
  std::set<uint64_t> completed_ordinals;
};

/// Replays every WAL file under `dir` into `session` (which must be fresh:
/// epoch 0, no shards, same pipeline configuration as the crashed run) and
/// truncates torn tails in place. `expected`, when non-null, poisons any
/// shard whose logged header is incompatible. Read-only apart from the
/// truncation; FrameWal::Open builds on this and then adopts the open
/// files. A missing directory replays as empty.
Status ReplayWalDir(const std::string& dir, api::ServerSession* session,
                    const stream::StreamHeader* expected,
                    obs::EventJournal* journal, WalReplaySummary* summary);

/// What PeekWalDir learns without replaying: the protocol header of the
/// first replayable shard and how many epochs the log spans.
struct WalDirPeek {
  std::string header_bytes;  ///< stream::StreamHeader wire form.
  uint32_t epochs = 1;       ///< max logged epoch + 1.
};

/// Sniffs a WAL directory's protocol — how ldp_aggregate sizes and
/// configures a session for it before replaying.
Result<WalDirPeek> PeekWalDir(const std::string& dir);

class FrameWal : public net::ShardDurabilityHook {
 public:
  struct Options {
    /// fsync every record: survives machine crashes, not just process
    /// crashes. Off by default (a per-record fsync is ruinous on the hot
    /// path and SIGKILL-durability doesn't need it).
    bool fsync = false;
    /// Validate replayed shard headers against this protocol (mismatches
    /// poison that shard). Must outlive the WAL when set.
    const stream::StreamHeader* expected = nullptr;
    obs::MetricsRegistry* metrics = nullptr;
    obs::EventJournal* journal = nullptr;
  };

  /// Creates `dir` if needed, replays whatever it holds into `session`
  /// (see ReplayWalDir), adopts the still-open shard files for continued
  /// appends, and returns the hook to wire into ReportServerOptions::wal.
  /// `summary` (optional) reports what the replay reconstructed — its
  /// resume_shards/completed_ordinals feed the server options.
  static Result<std::unique_ptr<FrameWal>> Open(const std::string& dir,
                                                api::ServerSession* session,
                                                Options options,
                                                WalReplaySummary* summary);

  ~FrameWal() override;

  FrameWal(const FrameWal&) = delete;
  FrameWal& operator=(const FrameWal&) = delete;

  // net::ShardDurabilityHook — called by ReportServer before the
  // corresponding session call.
  void OnShardOpen(size_t shard, uint64_t ordinal, uint32_t epoch,
                   const std::string& reporter_id,
                   const std::string& header_bytes) override;
  void OnShardData(size_t shard, const char* data, size_t size) override;
  void OnShardClose(size_t shard) override;
  void OnShardAbandon(size_t shard) override;

  const std::string& dir() const { return dir_; }

 private:
  FrameWal(std::string dir, Options options);

  /// Appends one record — `head` (type, len, CRC) then `payload` — to `fd`
  /// with a single writev. `started_ns` is when the caller began the
  /// record (0 with metrics off), for the append_us histogram.
  void AppendRecord(int fd, const std::array<char, kWalRecordHeaderBytes>& head,
                    const void* payload, size_t size, uint64_t started_ns);

  const std::string dir_;
  const Options options_;
  obs::WalMetrics metrics_;  // all-null when options_.metrics is null

  std::mutex mutex_;
  /// Open log files keyed by session shard id.
  std::unordered_map<size_t, int> fds_;
  /// Next generation per (epoch, ordinal) — continues past replayed files.
  std::map<std::pair<uint32_t, uint64_t>, uint32_t> next_generation_;
  /// Global close counter; replay closes in this order. Seeded past the
  /// largest replayed close_seq.
  uint64_t next_close_seq_ = 0;
};

}  // namespace ldp::relay

#endif  // LDP_RELAY_FRAME_WAL_H_
