// Little-endian word loads for byte buffers of any alignment: the wire
// codecs (core/wire.h), the stream framing layer (stream/) and the
// frequency oracles' report views (frequency/frequency_oracle.h) read their
// integers through these. A load is one std::memcpy (a single mov on
// x86/ARM) instead of a byte-at-a-time shift loop; big-endian hosts
// byte-swap after the copy.

#ifndef LDP_UTIL_LITTLE_ENDIAN_H_
#define LDP_UTIL_LITTLE_ENDIAN_H_

#include <cstdint>
#include <cstring>

namespace ldp::internal_wire {

#if defined(__BYTE_ORDER__) && __BYTE_ORDER__ == __ORDER_BIG_ENDIAN__
inline constexpr bool kHostIsLittleEndian = false;
inline uint16_t ToLittleEndian(uint16_t v) { return __builtin_bswap16(v); }
inline uint32_t ToLittleEndian(uint32_t v) { return __builtin_bswap32(v); }
inline uint64_t ToLittleEndian(uint64_t v) { return __builtin_bswap64(v); }
#else
inline constexpr bool kHostIsLittleEndian = true;
inline uint16_t ToLittleEndian(uint16_t v) { return v; }
inline uint32_t ToLittleEndian(uint32_t v) { return v; }
inline uint64_t ToLittleEndian(uint64_t v) { return v; }
#endif

/// Reads one little-endian T at `data`, which need not be aligned.
template <typename T>
inline T LoadLittleEndian(const char* data) {
  T value;
  std::memcpy(&value, data, sizeof(T));
  return ToLittleEndian(value);
}

/// Writes `value` little-endian at `data`, which need not be aligned.
template <typename T>
inline void StoreLittleEndian(char* data, T value) {
  const T wire = ToLittleEndian(value);
  std::memcpy(data, &wire, sizeof(T));
}

}  // namespace ldp::internal_wire

#endif  // LDP_UTIL_LITTLE_ENDIAN_H_
