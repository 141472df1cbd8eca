// Kill-point tests for the write-ahead frame log (relay/frame_wal.h). Each
// test drives the ShardDurabilityHook exactly the way ReportServer does
// (record first, session call second), "crashes" by abandoning the log
// mid-conversation, and then replays the directory into a fresh session.
// The contract under test: replay reconstructs the pre-crash session bit
// for bit — same Snapshot(), same merge order — a torn tail at EOF is
// truncated away, and a CRC-corrupt record poisons only its own shard.

#include <gtest/gtest.h>
#include <dirent.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <memory>
#include <random>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "api/pipeline.h"
#include "api/server_session.h"
#include "net/client.h"
#include "net/report_server.h"
#include "net/socket.h"
#include "relay/frame_wal.h"
#include "stream/report_stream.h"
#include "stream_corpus_util.h"
#include "test_util.h"

namespace ldp {
namespace {

using ldp::testing::kCorpusReports;
using ldp::testing::MakeCorpusPipeline;
using ldp::testing::MakeHonestStream;
using ldp::testing::ScopedTempDir;

TEST(ScopedTempDirTest, RemovesTheDirectoryAndItsContents) {
  // Each WAL test writes into one of these; none may outlive its scope.
  std::string path;
  {
    const ScopedTempDir dir("ldp_scoped_dir_test_");
    path = dir.path();
    struct stat info {};
    ASSERT_EQ(::stat(path.c_str(), &info), 0);
    EXPECT_TRUE(S_ISDIR(info.st_mode));
    ASSERT_EQ(::mkdir((path + "/nested").c_str(), 0755), 0);
    std::ofstream(path + "/nested/file") << "bytes";
    std::ofstream(path + "/top") << "bytes";
    // A second one is a different directory.
    const ScopedTempDir other("ldp_scoped_dir_test_");
    EXPECT_NE(other.path(), path);
  }
  struct stat info {};
  EXPECT_NE(::stat(path.c_str(), &info), 0) << path << " still exists";
}

std::vector<std::string> ListWalFiles(const std::string& dir) {
  std::vector<std::string> files;
  DIR* handle = ::opendir(dir.c_str());
  EXPECT_NE(handle, nullptr);
  while (dirent* entry = ::readdir(handle)) {
    const std::string file = entry->d_name;
    if (file.rfind("wal-", 0) == 0) files.push_back(dir + "/" + file);
  }
  ::closedir(handle);
  std::sort(files.begin(), files.end());
  return files;
}

size_t FileSize(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  EXPECT_TRUE(in.is_open()) << path;
  return static_cast<size_t>(in.tellg());
}

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  std::ostringstream bytes;
  bytes << in.rdbuf();
  return bytes.str();
}

// The byte-at-a-time table CRC the WAL shipped with before slicing-by-8:
// the reference relay::Crc32 must match bit for bit.
uint32_t BytewiseCrc32(const void* data, size_t size, uint32_t seed = 0) {
  static const std::array<uint32_t, 256> table = [] {
    std::array<uint32_t, 256> entries{};
    for (uint32_t i = 0; i < 256; ++i) {
      uint32_t crc = i;
      for (int bit = 0; bit < 8; ++bit) {
        crc = (crc >> 1) ^ ((crc & 1u) ? 0xEDB88320u : 0u);
      }
      entries[i] = crc;
    }
    return entries;
  }();
  uint32_t crc = ~seed;
  const unsigned char* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < size; ++i) {
    crc = (crc >> 8) ^ table[(crc ^ bytes[i]) & 0xffu];
  }
  return ~crc;
}

// Appends the low `width` bytes of `v`, little-endian.
void PutLe(std::string* out, uint64_t v, int width) {
  for (int i = 0; i < width; ++i) {
    out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

// One record as relay/frame_wal.h lays it out: u8 type, u32 len,
// u32 crc32(type || len || payload), payload.
std::string LayoutRecord(uint8_t type, const std::string& payload) {
  std::string record(1, static_cast<char>(type));
  PutLe(&record, payload.size(), 4);
  const uint32_t crc = BytewiseCrc32(payload.data(), payload.size(),
                                     BytewiseCrc32(record.data(), 5));
  PutLe(&record, crc, 4);
  return record + payload;
}

// One logged shard conversation, hook-before-session like ReportServer.
void PlayShard(relay::FrameWal* wal, api::ServerSession* session,
               const std::string& stream, uint64_t ordinal,
               size_t* shard_out = nullptr) {
  const std::string header = stream.substr(0, stream::kStreamHeaderBytes);
  const size_t shard = session->OpenShard();
  wal->OnShardOpen(shard, ordinal, session->current_epoch(),
                   /*reporter_id=*/"", header);
  ASSERT_TRUE(session->Feed(shard, header).ok());
  const char* data = stream.data() + stream::kStreamHeaderBytes;
  const size_t size = stream.size() - stream::kStreamHeaderBytes;
  // Two DATA messages, splitting inside a frame: replay must reassemble.
  const size_t half = size / 2;
  wal->OnShardData(shard, data, half);
  ASSERT_TRUE(session->Feed(shard, data, half).ok());
  wal->OnShardData(shard, data + half, size - half);
  ASSERT_TRUE(session->Feed(shard, data + half, size - half).ok());
  if (shard_out != nullptr) *shard_out = shard;
}

// The crashed run the resume tests restart from: ordinal 0 closed, and
// ordinal 1 cut after `partial` post-header bytes of `cut_stream`.
void CrashWithOrdinalOneOpen(const api::Pipeline& pipeline,
                             const std::string& dir,
                             const std::string& done_stream,
                             const std::string& cut_stream, size_t partial) {
  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  size_t shard = 0;
  PlayShard(wal.value().get(), &logged.value(), done_stream, 0, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  const std::string header = cut_stream.substr(0, stream::kStreamHeaderBytes);
  const char* data = cut_stream.data() + stream::kStreamHeaderBytes;
  const size_t cut = logged.value().OpenShard();
  wal.value()->OnShardOpen(cut, /*ordinal=*/1, logged.value().current_epoch(),
                           /*reporter_id=*/"", header);
  ASSERT_TRUE(logged.value().Feed(cut, header).ok());
  wal.value()->OnShardData(cut, data, partial);
  ASSERT_TRUE(logged.value().Feed(cut, data, partial).ok());
}

TEST(WalTest, Crc32MatchesTheIeeeCheckValue) {
  EXPECT_EQ(relay::Crc32("123456789", 9), 0xCBF43926u);
  EXPECT_EQ(relay::Crc32("", 0), 0u);
  // Chaining via the seed equals one pass over the concatenation.
  const uint32_t first = relay::Crc32("12345", 5);
  EXPECT_EQ(relay::Crc32("6789", 4, first), 0xCBF43926u);
}

TEST(WalTest, Crc32MatchesBytewiseReference) {
  std::mt19937_64 rng(19);
  std::string buffer(1 << 20, '\0');
  for (char& byte : buffer) byte = static_cast<char>(rng());
  // Every short length at every start offset: the 8-byte body, the byte
  // tail and the seam between them, plain and seeded.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t length = 0; length <= 64; ++length) {
      const char* start = buffer.data() + offset;
      ASSERT_EQ(relay::Crc32(start, length), BytewiseCrc32(start, length))
          << "offset " << offset << " length " << length;
      ASSERT_EQ(relay::Crc32(start, length, 0x9E3779B9u),
                BytewiseCrc32(start, length, 0x9E3779B9u))
          << "offset " << offset << " length " << length;
    }
  }
  // 1 MiB whole, and chained through `seed` across random split points.
  const uint32_t whole = BytewiseCrc32(buffer.data(), buffer.size());
  EXPECT_EQ(relay::Crc32(buffer.data(), buffer.size()), whole);
  std::vector<size_t> cuts = {0, buffer.size()};
  for (int i = 0; i < 15; ++i) cuts.push_back(rng() % buffer.size());
  std::sort(cuts.begin(), cuts.end());
  uint32_t chained = 0;
  for (size_t i = 1; i < cuts.size(); ++i) {
    chained = relay::Crc32(buffer.data() + cuts[i - 1], cuts[i] - cuts[i - 1],
                           chained);
  }
  EXPECT_EQ(chained, whole);
}

TEST(WalTest, AppendedFileIsByteExactToTheLayout) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 950);
  const std::string header = stream.substr(0, stream::kStreamHeaderBytes);
  const std::string body = stream.substr(stream::kStreamHeaderBytes);
  const size_t half = body.size() / 2;
  const std::string reporter = "device-42";
  const ScopedTempDir wal_dir("ldp_wal_test_byte_exact_");
  const std::string& dir = wal_dir.path();

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &session.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  wal.value()->OnShardOpen(/*shard=*/5, /*ordinal=*/3, /*epoch=*/0, reporter,
                           header);
  wal.value()->OnShardData(5, body.data(), half);
  wal.value()->OnShardData(5, body.data() + half, body.size() - half);
  wal.value()->OnShardClose(5);
  wal.value().reset();

  // The file header: 'LDPW', version 2, epoch 0, ordinal 3.
  std::string expected = "LDPW";
  PutLe(&expected, 2, 2);
  PutLe(&expected, 0, 4);
  PutLe(&expected, 3, 8);
  std::string open_payload;
  PutLe(&open_payload, reporter.size(), 2);
  open_payload += reporter + header;
  expected += LayoutRecord(/*kHeader=*/1, open_payload);
  expected += LayoutRecord(/*kData=*/2, body.substr(0, half));
  expected += LayoutRecord(/*kData=*/2, body.substr(half));
  std::string close_payload;
  PutLe(&close_payload, 0, 8);  // a fresh log's first close_seq
  expected += LayoutRecord(/*kClose=*/3, close_payload);

  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  EXPECT_EQ(files[0], dir + "/wal-e00000-o00003-g00000.ldpw");
  EXPECT_EQ(ReadFile(files[0]), expected);
}

TEST(WalTest, ConcurrentAppendsToDistinctShardsReplayLikeASerialFeed) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  constexpr size_t kShards = 4;
  constexpr size_t kPieces = 7;
  std::vector<std::string> streams;
  for (uint64_t s = 0; s < kShards; ++s) {
    streams.push_back(MakeHonestStream(pipeline, 960 + s));
  }
  const ScopedTempDir wal_dir("ldp_wal_test_concurrent_");
  const std::string& dir = wal_dir.path();

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  relay::FrameWal* hook = wal.value().get();

  // Every thread opens its shard, waits for the others, then appends its
  // stream in kPieces DATA records (most split a frame) while they do too.
  std::atomic<size_t> opened{0};
  std::vector<std::thread> threads;
  for (size_t s = 0; s < kShards; ++s) {
    threads.emplace_back([&, s] {
      const std::string& stream = streams[s];
      hook->OnShardOpen(s, /*ordinal=*/s, /*epoch=*/0, /*reporter_id=*/"",
                        stream.substr(0, stream::kStreamHeaderBytes));
      opened.fetch_add(1);
      while (opened.load() < kShards) std::this_thread::yield();
      const size_t body = stream.size() - stream::kStreamHeaderBytes;
      const size_t piece = (body + kPieces - 1) / kPieces;
      for (size_t at = stream::kStreamHeaderBytes; at < stream.size();
           at += piece) {
        hook->OnShardData(s, stream.data() + at,
                          std::min(piece, stream.size() - at));
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  const size_t close_order[kShards] = {2, 0, 3, 1};
  for (const size_t s : close_order) hook->OnShardClose(s);
  wal.value().reset();

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, kShards);
  EXPECT_EQ(summary.shards_corrupt, 0u);
  EXPECT_EQ(summary.truncated_tails, 0u);
  EXPECT_EQ(summary.frames_replayed, kShards * kPieces);

  auto serial = pipeline.NewServer();
  ASSERT_TRUE(serial.ok());
  std::vector<size_t> shards;
  for (const std::string& stream : streams) {
    shards.push_back(serial.value().OpenShard());
    ASSERT_TRUE(serial.value().Feed(shards.back(), stream).ok());
  }
  for (const size_t s : close_order) {
    ASSERT_TRUE(serial.value().CloseShard(shards[s]).ok());
  }
  EXPECT_EQ(replayed.value().Snapshot(), serial.value().Snapshot());
}

TEST(WalTest, ReadErrorIsAnIoErrorAndTruncatesNothing) {
  // A WAL name that read(2) cannot read (a directory: EISDIR). Taking the
  // failed read for EOF would replay it as a torn tail and truncate.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const ScopedTempDir wal_dir("ldp_wal_test_read_error_");
  const std::string& dir = wal_dir.path();
  ::mkdir(dir.c_str(), 0755);
  const std::string path = dir + "/wal-e00000-o00000-g00000.ldpw";
  ASSERT_EQ(::mkdir(path.c_str(), 0755), 0);

  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  const std::string fresh = session.value().Snapshot();
  relay::WalReplaySummary summary;
  const Status replayed = relay::ReplayWalDir(dir, &session.value(), nullptr,
                                              nullptr, &summary);
  EXPECT_EQ(replayed.code(), StatusCode::kIoError) << replayed.ToString();
  EXPECT_NE(replayed.ToString().find("read error on WAL file " + path),
            std::string::npos)
      << replayed.ToString();
  EXPECT_EQ(summary.truncated_tails, 0u);
  EXPECT_EQ(summary.records, 0u);

  // FrameWal::Open refuses the same directory.
  auto wal = relay::FrameWal::Open(dir, &session.value(),
                                   relay::FrameWal::Options(), nullptr);
  ASSERT_FALSE(wal.ok());
  EXPECT_EQ(wal.status().code(), StatusCode::kIoError);

  // Neither call touched the session.
  EXPECT_EQ(session.value().current_epoch(), 0u);
  EXPECT_EQ(session.value().Snapshot(), fresh);
  ::rmdir(path.c_str());
}

TEST(WalTest, ReplayReproducesTheSessionExactly) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  std::vector<std::string> streams;
  for (uint64_t s = 0; s < 3; ++s) {
    streams.push_back(MakeHonestStream(pipeline, 900 + s));
  }
  const ScopedTempDir wal_dir("ldp_wal_test_replay_exact_");
  const std::string& dir = wal_dir.path();

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok()) << wal.status().ToString();
  EXPECT_EQ(empty.shards_replayed, 0u);

  // Merge in NON-ordinal order (1, 0, 2): close_seq, not the file name,
  // must carry the merge order through the crash.
  std::vector<size_t> shards(3);
  for (uint64_t s = 0; s < 3; ++s) {
    PlayShard(wal.value().get(), &logged.value(), streams[s], s, &shards[s]);
  }
  for (const size_t s : {1, 0, 2}) {
    wal.value()->OnShardClose(shards[s]);
    ASSERT_TRUE(logged.value().CloseShard(shards[s]).ok());
  }
  const std::string reference = logged.value().Snapshot();
  wal.value().reset();  // "crash": every record is already on disk

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 3u);
  EXPECT_EQ(summary.shards_resumed, 0u);
  EXPECT_EQ(summary.shards_corrupt, 0u);
  EXPECT_EQ(summary.truncated_tails, 0u);
  EXPECT_EQ(summary.frames_replayed, 6u);  // two DATA records per shard
  EXPECT_EQ(summary.completed_ordinals.size(), 3u);
  EXPECT_TRUE(summary.resume_shards.empty());
  EXPECT_EQ(replayed.value().Snapshot(), reference);
  auto reports = replayed.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 3 * kCorpusReports);
}

TEST(WalTest, OpenShardBecomesAResumeEntryWithExactDurableBytes) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string closed_stream = MakeHonestStream(pipeline, 910);
  const std::string open_stream = MakeHonestStream(pipeline, 911);
  const ScopedTempDir wal_dir("ldp_wal_test_resume_");
  const std::string& dir = wal_dir.path();

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());

  size_t done = 0;
  PlayShard(wal.value().get(), &logged.value(), closed_stream, 0, &done);
  wal.value()->OnShardClose(done);
  ASSERT_TRUE(logged.value().CloseShard(done).ok());

  // Ordinal 1 crashes mid-shard: header plus a partial DATA chunk that
  // ends inside a frame.
  const std::string header =
      open_stream.substr(0, stream::kStreamHeaderBytes);
  const char* data = open_stream.data() + stream::kStreamHeaderBytes;
  const size_t total = open_stream.size() - stream::kStreamHeaderBytes;
  const size_t partial = total / 3 + 1;
  const size_t open_shard = logged.value().OpenShard();
  wal.value()->OnShardOpen(open_shard, /*ordinal=*/1,
                           logged.value().current_epoch(),
                           /*reporter_id=*/"", header);
  ASSERT_TRUE(logged.value().Feed(open_shard, header).ok());
  wal.value()->OnShardData(open_shard, data, partial);
  ASSERT_TRUE(logged.value().Feed(open_shard, data, partial).ok());
  wal.value().reset();  // crash with ordinal 1 open

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 1u);
  EXPECT_EQ(summary.shards_resumed, 1u);
  ASSERT_EQ(summary.resume_shards.count(1), 1u);
  EXPECT_EQ(summary.resume_shards.at(1).durable_bytes, partial);
  EXPECT_EQ(summary.completed_ordinals.count(0), 1u);
  EXPECT_EQ(summary.completed_ordinals.count(1), 0u);

  // Finishing the resumed shard from the durable offset lands exactly
  // where an uninterrupted run would have.
  const size_t resumed = summary.resume_shards.at(1).shard;
  ASSERT_TRUE(
      replayed.value().Feed(resumed, data + partial, total - partial).ok());
  ASSERT_TRUE(replayed.value().CloseShard(resumed).ok());

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  for (const std::string& stream : {closed_stream, open_stream}) {
    const size_t shard = direct.value().OpenShard();
    ASSERT_TRUE(direct.value().Feed(shard, stream).ok());
    ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  }
  EXPECT_EQ(replayed.value().Snapshot(), direct.value().Snapshot());
}

TEST(WalTest, TornTailIsTruncatedAndTheShardStillResumes) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 920);
  const ScopedTempDir wal_dir("ldp_wal_test_torn_tail_");
  const std::string& dir = wal_dir.path();

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  PlayShard(wal.value().get(), &logged.value(), stream, /*ordinal=*/0);
  wal.value().reset();

  // The crash interrupted a record write: a dangling record header claiming
  // payload that never made it to disk.
  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 1u);
  const size_t intact = FileSize(files[0]);
  {
    std::ofstream out(files[0],
                      std::ios::binary | std::ios::app | std::ios::ate);
    const char torn[] = {0x02, 0x40, 0x00, 0x00, 0x00};  // DATA, len 64
    out.write(torn, sizeof(torn));
  }
  ASSERT_EQ(FileSize(files[0]), intact + 5);

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.truncated_tails, 1u);
  EXPECT_EQ(summary.shards_corrupt, 0u);
  EXPECT_EQ(summary.shards_resumed, 1u);
  ASSERT_EQ(summary.resume_shards.count(0), 1u);
  EXPECT_EQ(summary.resume_shards.at(0).durable_bytes,
            stream.size() - stream::kStreamHeaderBytes);
  // The tail is gone from disk, so a second replay sees a clean file.
  EXPECT_EQ(FileSize(files[0]), intact);
}

TEST(WalTest, CorruptRecordPoisonsOnlyItsShard) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string poisoned_stream = MakeHonestStream(pipeline, 930);
  const std::string honest_stream = MakeHonestStream(pipeline, 931);
  const ScopedTempDir wal_dir("ldp_wal_test_corrupt_");
  const std::string& dir = wal_dir.path();

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  size_t shard = 0;
  PlayShard(wal.value().get(), &logged.value(), poisoned_stream, 0, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  PlayShard(wal.value().get(), &logged.value(), honest_stream, 1, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  wal.value().reset();

  // Flip one byte inside ordinal 0's logged header record payload: the
  // record is complete, so this is corruption, not a torn tail.
  const std::vector<std::string> files = ListWalFiles(dir);
  ASSERT_EQ(files.size(), 2u);  // sorted: e00000-o00000 first
  {
    const std::streamoff offset = static_cast<std::streamoff>(
        relay::kWalFileHeaderBytes + relay::kWalRecordHeaderBytes + 3);
    std::fstream out(files[0],
                     std::ios::binary | std::ios::in | std::ios::out);
    char byte = 0;
    out.seekg(offset);
    out.read(&byte, 1);
    byte = static_cast<char>(byte ^ 0xFF);
    out.seekp(offset);
    out.write(&byte, 1);
    ASSERT_TRUE(out.good());
  }

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_corrupt, 1u);
  EXPECT_EQ(summary.shards_replayed, 1u);
  EXPECT_EQ(summary.truncated_tails, 0u);
  EXPECT_EQ(summary.completed_ordinals.count(0), 0u);
  EXPECT_EQ(summary.completed_ordinals.count(1), 1u);

  // The epoch holds exactly the honest shard's contribution.
  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  const size_t only = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(only, honest_stream).ok());
  ASSERT_TRUE(direct.value().CloseShard(only).ok());
  EXPECT_EQ(replayed.value().Snapshot(), direct.value().Snapshot());
}

TEST(WalTest, AbandonedShardReplaysToNothing) {
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string abandoned_stream = MakeHonestStream(pipeline, 940);
  const std::string kept_stream = MakeHonestStream(pipeline, 941);
  const ScopedTempDir wal_dir("ldp_wal_test_abandon_");
  const std::string& dir = wal_dir.path();

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  size_t shard = 0;
  PlayShard(wal.value().get(), &logged.value(), abandoned_stream, 0, &shard);
  wal.value()->OnShardAbandon(shard);
  ASSERT_TRUE(logged.value().AbandonShard(shard).ok());
  PlayShard(wal.value().get(), &logged.value(), kept_stream, 1, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  const std::string reference = logged.value().Snapshot();
  wal.value().reset();

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 1u);
  EXPECT_EQ(summary.shards_resumed, 0u);
  EXPECT_EQ(summary.shards_corrupt, 0u);
  EXPECT_EQ(replayed.value().Snapshot(), reference);
  auto reports = replayed.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

TEST(WalTest, ReopeningTheLogContinuesGenerationsAndCloseOrder) {
  // A restart that keeps collecting: FrameWal::Open replays, adopts the
  // resumable shard file, and new appends land after the old records —
  // a second crash/replay must see one continuous history.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 950);
  const ScopedTempDir wal_dir("ldp_wal_test_reopen_");
  const std::string& dir = wal_dir.path();
  const std::string header = stream.substr(0, stream::kStreamHeaderBytes);
  const char* data = stream.data() + stream::kStreamHeaderBytes;
  const size_t total = stream.size() - stream::kStreamHeaderBytes;
  const size_t partial = total / 2;

  {
    auto logged = pipeline.NewServer();
    ASSERT_TRUE(logged.ok());
    relay::WalReplaySummary empty;
    auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                     relay::FrameWal::Options(), &empty);
    ASSERT_TRUE(wal.ok());
    const size_t shard = logged.value().OpenShard();
    wal.value()->OnShardOpen(shard, /*ordinal=*/0,
                             logged.value().current_epoch(),
                             /*reporter_id=*/"", header);
    ASSERT_TRUE(logged.value().Feed(shard, header).ok());
    wal.value()->OnShardData(shard, data, partial);
    ASSERT_TRUE(logged.value().Feed(shard, data, partial).ok());
  }  // first crash

  {
    auto restarted = pipeline.NewServer();
    ASSERT_TRUE(restarted.ok());
    relay::WalReplaySummary summary;
    auto wal = relay::FrameWal::Open(dir, &restarted.value(),
                                     relay::FrameWal::Options(), &summary);
    ASSERT_TRUE(wal.ok());
    ASSERT_EQ(summary.shards_resumed, 1u);
    const net::ResumedShard resumed = summary.resume_shards.at(0);
    EXPECT_EQ(resumed.durable_bytes, partial);
    // The reporter reconnects and ships only what was not yet durable.
    wal.value()->OnShardData(resumed.shard, data + partial, total - partial);
    ASSERT_TRUE(restarted.value()
                    .Feed(resumed.shard, data + partial, total - partial)
                    .ok());
    wal.value()->OnShardClose(resumed.shard);
    ASSERT_TRUE(restarted.value().CloseShard(resumed.shard).ok());
  }  // second crash, after the close record

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 1u);
  EXPECT_EQ(summary.shards_resumed, 0u);

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  const size_t shard = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(shard, stream).ok());
  ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  EXPECT_EQ(replayed.value().Snapshot(), direct.value().Snapshot());
}

TEST(WalTest, ServerResumeHandshakeContinuesACrashedCampaign) {
  // The full wire loop: a crashed collector's WAL is replayed behind a
  // restarted ReportServer; the reporter's HELLO re-attaches to the
  // replayed shard, HELLO_OK tells it how many bytes are already durable,
  // and shipping only the remainder completes the campaign exactly.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string done_stream = MakeHonestStream(pipeline, 970);
  const std::string cut_stream = MakeHonestStream(pipeline, 971);
  const ScopedTempDir wal_dir("ldp_wal_test_net_resume_");
  const std::string& dir = wal_dir.path();
  const char* data = cut_stream.data() + stream::kStreamHeaderBytes;
  const size_t total = cut_stream.size() - stream::kStreamHeaderBytes;
  const size_t partial = total / 2 + 7;
  CrashWithOrdinalOneOpen(pipeline, dir, done_stream, cut_stream, partial);

  // The restarted collector, WAL wired into the server options the way
  // ldp_serve --wal-dir does it.
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  relay::WalReplaySummary summary;
  auto wal = relay::FrameWal::Open(dir, &session.value(),
                                   relay::FrameWal::Options(), &summary);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(summary.shards_resumed, 1u);
  net::ReportServerOptions options;
  options.expected_shards = 2;
  options.wal = wal.value().get();
  options.resume_shards = summary.resume_shards;
  options.completed_ordinals = summary.completed_ordinals;
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = dir + ".sock";
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         endpoint, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  // The pre-crash-completed ordinal is refused as a duplicate.
  auto replayed_dup = net::CollectorClient::Connect(
      server.value()->endpoint(), pipeline.header(), /*ordinal=*/0);
  EXPECT_FALSE(replayed_dup.ok());

  auto client = net::CollectorClient::Connect(server.value()->endpoint(),
                                              pipeline.header(),
                                              /*ordinal=*/1);
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  EXPECT_EQ(client.value().resume_offset(/*channel=*/0), partial);
  // Ship only the remainder, as ldp_report's sink does with the offset.
  ASSERT_TRUE(
      client.value().Send(/*channel=*/0, data + partial, total - partial).ok());
  auto closed = client.value().CloseShard(/*channel=*/0);
  ASSERT_TRUE(closed.ok()) << closed.status().ToString();
  EXPECT_TRUE(closed.value().status.ok());
  server.value()->Stop(/*drain=*/true);

  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  for (const std::string& stream : {done_stream, cut_stream}) {
    const size_t shard = direct.value().OpenShard();
    ASSERT_TRUE(direct.value().Feed(shard, stream).ok());
    ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  }
  EXPECT_EQ(session.value().Snapshot(), direct.value().Snapshot());
}

TEST(WalTest, EpochAdvanceAbandonsAnUnclaimedResumeShard) {
  // Regression: replay leaves a crashed shard open for its reporter, and
  // the session refuses to advance while any shard is open. A reporter
  // that never came back used to pin the campaign to its epoch. The
  // operator's advance now abandons the unclaimed shard first.
  const api::Pipeline pipeline =
      MakeCorpusPipeline(/*numeric=*/false, /*epochs=*/2);
  const std::string done_stream = MakeHonestStream(pipeline, 972);
  const std::string cut_stream = MakeHonestStream(pipeline, 973);
  const ScopedTempDir wal_dir("ldp_wal_test_advance_abandons_");
  const std::string& dir = wal_dir.path();
  CrashWithOrdinalOneOpen(pipeline, dir, done_stream, cut_stream,
                          /*partial=*/100);

  // Restart, and ordinal 1's reporter never reconnects.
  auto session = pipeline.NewServer();
  ASSERT_TRUE(session.ok());
  relay::WalReplaySummary summary;
  auto wal = relay::FrameWal::Open(dir, &session.value(),
                                   relay::FrameWal::Options(), &summary);
  ASSERT_TRUE(wal.ok());
  ASSERT_EQ(summary.shards_resumed, 1u);
  net::ReportServerOptions options;
  options.expected_shards = 2;
  options.wal = wal.value().get();
  options.resume_shards = summary.resume_shards;
  options.completed_ordinals = summary.completed_ordinals;
  net::Endpoint endpoint;
  endpoint.kind = net::Endpoint::Kind::kUnix;
  endpoint.path = dir + ".sock";
  auto server = net::ReportServer::Start(&session.value(), pipeline.header(),
                                         endpoint, options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  const Status advanced = server.value()->AdvanceEpoch();
  ASSERT_TRUE(advanced.ok()) << advanced.ToString();
  EXPECT_EQ(session.value().current_epoch(), 1u);
  server.value()->Stop(/*drain=*/true);
  EXPECT_EQ(server.value()->stats().shards_abandoned, 1u);

  // Epoch 0 holds exactly the shard that closed before the crash.
  auto direct = pipeline.NewServer();
  ASSERT_TRUE(direct.ok());
  const size_t shard = direct.value().OpenShard();
  ASSERT_TRUE(direct.value().Feed(shard, done_stream).ok());
  ASSERT_TRUE(direct.value().CloseShard(shard).ok());
  ASSERT_TRUE(direct.value().AdvanceEpoch().ok());
  EXPECT_EQ(session.value().Snapshot(), direct.value().Snapshot());

  // The abandon record is durable: a second replay resumes nothing.
  auto again = pipeline.NewServer();
  ASSERT_TRUE(again.ok());
  relay::WalReplaySummary second;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &again.value(), nullptr, nullptr,
                                  &second)
                  .ok());
  EXPECT_EQ(second.shards_resumed, 0u);
  EXPECT_TRUE(second.resume_shards.empty());
  EXPECT_EQ(second.shards_replayed, 1u);
  auto reports = again.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), kCorpusReports);
}

TEST(WalTest, HeaderMismatchAgainstExpectedPoisonsTheShard) {
  const api::Pipeline mixed = MakeCorpusPipeline(/*numeric=*/false);
  const api::Pipeline numeric = MakeCorpusPipeline(/*numeric=*/true);
  const std::string stream = MakeHonestStream(numeric, 960);
  const ScopedTempDir wal_dir("ldp_wal_test_expected_");
  const std::string& dir = wal_dir.path();

  auto logged = numeric.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  size_t shard = 0;
  PlayShard(wal.value().get(), &logged.value(), stream, 0, &shard);
  wal.value()->OnShardClose(shard);
  ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  wal.value().reset();

  // Replaying under the wrong collector protocol refuses the shard rather
  // than feeding incompatible bytes.
  auto replayed = mixed.NewServer();
  ASSERT_TRUE(replayed.ok());
  const stream::StreamHeader expected = mixed.header();
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), &expected, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 0u);
  EXPECT_EQ(summary.shards_corrupt, 1u);
  auto reports = replayed.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

TEST(WalTest, ReplayRestoresTheReporterLedgerExactly) {
  // The reporter id rides in the v2 kHeader record so replay re-charges
  // the same (reporter, epoch) cell the live run charged. After the crash
  // the restored session must match the pre-crash one bit for bit — the
  // v2 snapshot embeds the ledger section, so equality pins the spend.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const ScopedTempDir wal_dir("ldp_wal_test_reporter_ledger_");
  const std::string& dir = wal_dir.path();
  const std::vector<std::string> streams = {MakeHonestStream(pipeline, 920),
                                            MakeHonestStream(pipeline, 921)};

  auto logged = pipeline.NewServer();
  ASSERT_TRUE(logged.ok());
  relay::WalReplaySummary empty;
  auto wal = relay::FrameWal::Open(dir, &logged.value(),
                                   relay::FrameWal::Options(), &empty);
  ASSERT_TRUE(wal.ok());
  // alice ships both shards: charged once, logged twice.
  for (uint64_t s = 0; s < streams.size(); ++s) {
    const std::string header =
        streams[s].substr(0, stream::kStreamHeaderBytes);
    auto opened = logged.value().OpenShard("alice");
    ASSERT_TRUE(opened.ok()) << opened.status().ToString();
    const size_t shard = opened.value();
    wal.value()->OnShardOpen(shard, s, logged.value().current_epoch(),
                             /*reporter_id=*/"alice", header);
    ASSERT_TRUE(logged.value().Feed(shard, streams[s]).ok());
    wal.value()->OnShardData(shard,
                             streams[s].data() + stream::kStreamHeaderBytes,
                             streams[s].size() - stream::kStreamHeaderBytes);
    wal.value()->OnShardClose(shard);
    ASSERT_TRUE(logged.value().CloseShard(shard).ok());
  }
  EXPECT_EQ(logged.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
  const std::string reference = logged.value().Snapshot();
  wal.value().reset();  // crash

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_replayed, 2u);
  EXPECT_EQ(replayed.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
  EXPECT_EQ(replayed.value().accountant().num_charged_reporters(), 2u);
  EXPECT_EQ(replayed.value().Snapshot(), reference);

  // Replay-after-replay is idempotent, not a double spend.
  relay::WalReplaySummary again;
  auto twice = pipeline.NewServer();
  ASSERT_TRUE(twice.ok());
  ASSERT_TRUE(
      relay::ReplayWalDir(dir, &twice.value(), nullptr, nullptr, &again)
          .ok());
  EXPECT_EQ(twice.value().accountant().Spent("alice"),
            pipeline.header().epsilon);
}

TEST(WalTest, LegacyV1LogCountsAsCorruptAndReplaysNothing) {
  // A log written before reporter ids existed: version 1 in the file
  // header, kHeader payload = bare stream-header bytes. Craft one byte by
  // byte (framing documented in relay/frame_wal.h): replay only reads the
  // current version, so the whole log counts as corrupt.
  const api::Pipeline pipeline = MakeCorpusPipeline(/*numeric=*/false);
  const std::string stream = MakeHonestStream(pipeline, 930);
  const ScopedTempDir wal_dir("ldp_wal_test_legacy_v1_");
  const std::string& dir = wal_dir.path();
  ::mkdir(dir.c_str(), 0755);

  auto put16 = [](std::string* out, uint16_t v) {
    out->push_back(static_cast<char>(v & 0xff));
    out->push_back(static_cast<char>(v >> 8));
  };
  auto put32 = [](std::string* out, uint32_t v) {
    for (int i = 0; i < 4; ++i) {
      out->push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  };
  auto put64 = [&put32](std::string* out, uint64_t v) {
    put32(out, static_cast<uint32_t>(v));
    put32(out, static_cast<uint32_t>(v >> 32));
  };
  auto append_record = [&](std::string* out, uint8_t type,
                           const std::string& payload) {
    std::string head;
    head.push_back(static_cast<char>(type));
    put32(&head, static_cast<uint32_t>(payload.size()));
    uint32_t crc = relay::Crc32(head.data(), head.size());
    crc = relay::Crc32(payload.data(), payload.size(), crc);
    out->append(head);
    put32(out, crc);
    out->append(payload);
  };

  std::string file;
  put32(&file, relay::kWalMagic);
  put16(&file, 1);  // version
  put32(&file, 0);  // epoch
  put64(&file, 0);  // ordinal
  append_record(&file, /*kHeader=*/1,
                stream.substr(0, stream::kStreamHeaderBytes));
  append_record(&file, /*kData=*/2,
                stream.substr(stream::kStreamHeaderBytes));
  std::string close_payload;
  put64(&close_payload, 1);  // close_seq
  append_record(&file, /*kClose=*/3, close_payload);
  {
    std::ofstream out(dir + "/wal-e00000-o00000-g00001.ldpw",
                      std::ios::binary);
    ASSERT_TRUE(out.is_open());
    out.write(file.data(), static_cast<std::streamsize>(file.size()));
  }

  auto replayed = pipeline.NewServer();
  ASSERT_TRUE(replayed.ok());
  relay::WalReplaySummary summary;
  ASSERT_TRUE(relay::ReplayWalDir(dir, &replayed.value(), nullptr, nullptr,
                                  &summary)
                  .ok());
  EXPECT_EQ(summary.shards_corrupt, 1u);
  EXPECT_EQ(summary.shards_replayed, 0u);
  EXPECT_EQ(summary.shards_resumed, 0u);
  EXPECT_EQ(summary.frames_replayed, 0u);
  EXPECT_EQ(summary.bytes_replayed, 0u);
  auto reports = replayed.value().num_reports(0);
  ASSERT_TRUE(reports.ok());
  EXPECT_EQ(reports.value(), 0u);
}

}  // namespace
}  // namespace ldp
