/**
 * @file
 * Trace reader: validate and load a .dvfstrace into a pred::RunRecord.
 *
 * The reader is strict before it is lenient: magic, version, reserved
 * fields and the FNV-1a payload digest are checked before any section
 * is parsed, every section length is bounds-checked against the
 * input, and every enum/id field is range-checked. Malformed input of
 * any kind — truncated, bit-flipped, alien — raises a structured
 * TraceError; it can never produce undefined behaviour or a silently
 * wrong record. Unknown section ids, by contrast, are skipped (they
 * are how future writers add observation fields, see DESIGN.md
 * section 10), which is safe precisely because the digest has already
 * vouched for the bytes.
 */

#ifndef DVFS_TRACE_READER_HH
#define DVFS_TRACE_READER_HH

#include <cstdint>
#include <string>
#include <vector>

#include "pred/record.hh"
#include "trace/format.hh"
#include "trace/writer.hh"

namespace dvfs::trace {

/**
 * A run loaded from a .dvfstrace file: the reconstructed record (equal
 * field-by-field to the source), so it binds wherever a predictor or
 * the replay engine takes a pred::RunRecord, plus what the file adds.
 */
struct LoadedTrace : pred::RunRecord {
    TraceMeta meta;                  ///< workload name, seed
    std::uint64_t payloadDigest = 0; ///< verified digest from the header
};

/**
 * Decode an in-memory .dvfstrace image.
 *
 * @throws TraceError on any malformed input (see format.hh).
 */
LoadedTrace decodeTrace(const std::vector<std::uint8_t> &image);

/**
 * Read and decode @p path.
 *
 * @throws TraceError{Io} if unreadable, else as decodeTrace.
 */
LoadedTrace readTraceFile(const std::string &path);

} // namespace dvfs::trace

#endif // DVFS_TRACE_READER_HH
