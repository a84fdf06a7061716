// Whole-file reads and the one atomic publish every cache file goes through.
//
// write_file_atomic writes a private temp file in the target's directory,
// then renames it over the final path. A reader therefore sees either the
// previous complete file or the new complete file, never a torn one; torn
// bytes can only be left by a crash BEFORE the rename, and every reader of
// these files (the LUT table cache, campaignd's queue records, claims,
// result-cache entries, status snapshots and reports) treats an
// unparseable file as absent.
#pragma once

#include <cstddef>
#include <cstdint>
#include <iosfwd>
#include <string>

namespace razorbus::util {

// Reads a whole file; throws std::runtime_error when it cannot be opened.
std::string read_file(const std::string& path);

// Writes `content` to a sibling temp file and renames it over `path`. The
// temp name carries a random per-process token (cross-process uniqueness)
// and a process-local serial (two threads publishing one path must not
// share a temp file). Throws std::runtime_error when the write or rename
// fails; the temp file is removed first.
void write_file_atomic(const std::string& path, const std::string& content);

// Bounds a claimed element count by the bytes actually left in the stream,
// so a corrupt header cannot commit a giant allocation for a read that is
// guaranteed to fail. False when the claim exceeds the remaining bytes;
// true on an unseekable stream (the read itself then fails).
bool claim_fits_stream(std::istream& is, std::uint64_t count, std::size_t elem_size);

}  // namespace razorbus::util
