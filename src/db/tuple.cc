#include "db/tuple.h"

#include <algorithm>
#include <cstring>

namespace bionicdb::db {

std::vector<uint8_t> TupleAccessor::key_bytes() const {
  std::vector<uint8_t> out(key_len());
  if (!out.empty()) dram_->ReadBytes(key_addr(), out.data(), out.size());
  return out;
}

std::vector<uint8_t> TupleAccessor::payload_bytes() const {
  std::vector<uint8_t> out(payload_len());
  if (!out.empty()) dram_->ReadBytes(payload_addr(), out.data(), out.size());
  return out;
}

uint64_t TupleAccessor::key_u64() const {
  uint8_t buf[8] = {0};
  dram_->ReadBytes(key_addr(), buf, std::min<uint16_t>(key_len(), 8));
  return DecodeKeyU64(buf);
}

uint64_t TupleFootprint(uint8_t height, uint16_t key_len,
                        uint32_t payload_len) {
  uint32_t links = height == 0 ? 1 : height;
  return kTupleHeaderSize + 8ull * links + PadTo8(key_len) + payload_len;
}

sim::Addr AllocateTuple(sim::DramMemory* dram, uint32_t partition,
                        uint8_t height, const uint8_t* key, uint16_t key_len,
                        const uint8_t* payload, uint32_t payload_len,
                        Timestamp write_ts, uint8_t flags) {
  sim::Addr addr = dram->AllocateIn(
      partition, TupleFootprint(height, key_len, payload_len));
  dram->Write64(addr + 0, write_ts);
  dram->Write64(addr + 8, 0);  // read_ts
  dram->Write8(addr + 16, flags);
  dram->Write8(addr + 17, height);
  dram->WriteBytes(addr + 18, &key_len, 2);
  dram->Write32(addr + 20, payload_len);
  uint32_t links = height == 0 ? 1 : height;
  for (uint32_t i = 0; i < links; ++i) {
    dram->Write64(addr + kTupleHeaderSize + 8 * i, sim::kNullAddr);
  }
  sim::Addr key_at = addr + kTupleHeaderSize + 8 * links;
  if (key_len > 0) dram->WriteBytes(key_at, key, key_len);
  if (payload_len > 0) {
    dram->WriteBytes(key_at + PadTo8(key_len), payload, payload_len);
  }
  dram->NotifyTupleAllocated(addr);
  return addr;
}

int CompareKeyToTuple(const sim::DramMemory& dram, const uint8_t* key,
                      uint16_t key_len, const TupleAccessor& tuple) {
  const uint16_t tlen = tuple.key_len();
  const sim::Addr taddr = tuple.key_addr();
  uint16_t n = std::min(key_len, tlen);
  uint16_t i = 0;
  while (i < n) {
    // Compare against the tuple key's page span directly: one page lookup
    // per (at most two) spans instead of a timing-free Read8 per byte.
    uint64_t span = 0;
    const uint8_t* tb = dram.ReadSpan(taddr + i, &span);
    const uint16_t chunk = uint16_t(std::min<uint64_t>(span, n - i));
    const int cmp = std::memcmp(key + i, tb, chunk);
    if (cmp != 0) return cmp < 0 ? -1 : 1;
    i = uint16_t(i + chunk);
  }
  if (key_len == tlen) return 0;
  return key_len < tlen ? -1 : 1;
}

void EncodeKeyU64(uint64_t v, uint8_t out[8]) {
  for (int i = 0; i < 8; ++i) out[i] = uint8_t(v >> (8 * (7 - i)));
}

uint64_t DecodeKeyU64(const uint8_t in[8]) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | in[i];
  return v;
}

}  // namespace bionicdb::db
