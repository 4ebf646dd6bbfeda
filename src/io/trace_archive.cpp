#include "io/trace_archive.hpp"

#include <cmath>
#include <cstdint>
#include <fstream>
#include <string>

#include "io/mmap_archive.hpp"
#include "util/assert.hpp"
#include "util/binio.hpp"

namespace emts::io {

namespace {

// The EMTA v1 header (docs/FORMATS.md): magic[4] @0, u32 version @4, u64
// trace_count @8, u64 trace_length @16, f64 sample_rate @24, little-endian.
constexpr char kMagic[4] = {'E', 'M', 'T', 'A'};
constexpr std::uint32_t kVersion = 1;

}  // namespace

TraceArchiveShape decode_trace_archive_header(util::ByteReader& in, const std::string& path) {
  EMTS_REQUIRE(in.remaining() >= kTraceArchiveHeaderBytes,
               "trace archive: truncated header in " + path);
  in.expect_magic(kMagic, "trace archive: " + path);
  const std::uint32_t version = in.u32();
  EMTS_REQUIRE(version == kVersion, "trace archive: unsupported version " +
                                        std::to_string(version) + " in " + path);
  const std::uint64_t trace_count = in.u64();
  const std::uint64_t trace_length = in.u64();
  const double sample_rate = in.f64();
  EMTS_REQUIRE(trace_count > 0 && trace_length > 0, "trace archive: empty archive " + path);
  EMTS_REQUIRE(std::isfinite(sample_rate) && sample_rate > 0.0,
               "trace archive: bad sample rate in " + path);
  // Guard pathological headers before anything is sized from them.
  EMTS_REQUIRE(trace_count < (1ull << 32) && trace_length < (1ull << 32),
               "trace archive: implausible sizes in " + path);
  // The declared shape must account for every byte after the header, so a
  // truncated or padded file is refused before a single trace is allocated
  // or handed out of a mapping. Both factors may be up to 2^32-1, so the
  // product can wrap u64 (2^31 x 2^30 x 8 = 2^64 ≡ 0) and make a crafted
  // header agree with a header-only file; multiply checked.
  std::uint64_t sample_count = 0;
  std::uint64_t payload_bytes = 0;
  EMTS_REQUIRE(util::checked_mul_u64(trace_count, trace_length, &sample_count) &&
                   util::checked_mul_u64(sample_count, sizeof(double), &payload_bytes),
               "trace archive: declared shape overflows in " + path);
  EMTS_REQUIRE(in.remaining() == payload_bytes,
               "trace archive: declared shape disagrees with file size in " + path);
  return TraceArchiveShape{static_cast<std::size_t>(trace_count),
                           static_cast<std::size_t>(trace_length), sample_rate};
}

void save_trace_archive(const std::string& path, const core::TraceSet& set) {
  EMTS_REQUIRE(!set.empty(), "cannot archive an empty trace set");
  set.validate();

  std::ofstream out{path, std::ios::binary};
  EMTS_REQUIRE(out.good(), "save_trace_archive: cannot open " + path);

  out.write(kMagic, sizeof kMagic);
  util::write_u32(out, kVersion);
  util::write_u64(out, set.size());
  util::write_u64(out, set.trace_length());
  util::write_f64(out, set.sample_rate);

  for (const core::Trace& trace : set.traces) {
    out.write(reinterpret_cast<const char*>(trace.data()),
              static_cast<std::streamsize>(trace.size() * sizeof(double)));
  }
  EMTS_REQUIRE(out.good(), "save_trace_archive: write failed for " + path);
}

core::TraceSet load_trace_archive(const std::string& path) {
  const MappedTraceArchive archive{path};
  core::TraceSet set;
  set.sample_rate = archive.sample_rate();
  for (std::size_t t = 0; t < archive.size(); ++t) set.add(archive.trace_copy(t));
  return set;
}

}  // namespace emts::io
