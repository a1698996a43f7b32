/**
 * @file
 * Trace writer: serialize one recorded run to the .dvfstrace format.
 *
 * The writer persists a whole pred::RunRecord (base frequency, total
 * time, epochs with per-thread counter deltas, thread summaries, GC
 * marks, and the raw sync-event trace when it was recorded) plus
 * identifying metadata, under the layout documented in format.hh.
 * Serialization is fully deterministic: the same record and metadata
 * always produce the same bytes and the same payload digest, which is
 * what lets tests pin golden digests and lets replay prove
 * bit-identity against the live path.
 */

#ifndef DVFS_TRACE_WRITER_HH
#define DVFS_TRACE_WRITER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pred/record.hh"

namespace dvfs::trace {

/** Identifying metadata stored alongside the record. */
struct TraceMeta {
    std::string workload;    ///< benchmark name (wl::WorkloadParams::name)
    std::uint64_t seed = 0;  ///< machine seed of the recorded run
};

/** Serialize @p rec (+ @p meta) to an in-memory .dvfstrace image. */
std::vector<std::uint8_t> encodeTrace(const pred::RunRecord &rec,
                                      const TraceMeta &meta);

/**
 * Serialize @p rec (+ @p meta) to @p path.
 *
 * @throws TraceError{Io} if the file cannot be written.
 */
void writeTraceFile(const std::string &path, const pred::RunRecord &rec,
                    const TraceMeta &meta);

/** The payload digest stored in an encoded trace image's header. */
std::uint64_t tracePayloadDigest(const std::vector<std::uint8_t> &image);

/**
 * Canonical file name of one recorded cell:
 * "<workload>_f<mhz>_s<seed>.dvfstrace".
 */
std::string traceFileName(const std::string &workload,
                          std::uint32_t freq_mhz, std::uint64_t seed);

} // namespace dvfs::trace

#endif // DVFS_TRACE_WRITER_HH
