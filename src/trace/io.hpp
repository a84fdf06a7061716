// Trace serialization.
//
// Binary format for fast reload of long captures (magic + name + words) and
// CSV export for external analysis. Capturing 10M-cycle traces from the
// mini-CPU is cheap, but storing them lets experiments share exact inputs
// across processes and makes third-party traces usable.
#pragma once

#include <iosfwd>
#include <memory>
#include <optional>
#include <string>

#include "trace/source.hpp"
#include "trace/trace.hpp"

namespace razorbus::trace {

// Stream-level primitives.
void save_binary(const Trace& trace, std::ostream& os);
std::optional<Trace> load_binary(std::istream& is);

// File-level helpers; throw std::runtime_error on I/O failure, and
// load_trace_file also throws on a corrupt/unrecognised file.
void save_trace_file(const Trace& trace, const std::string& path);
Trace load_trace_file(const std::string& path);

// Streaming reader over a saved trace file (DESIGN.md §12): parses the
// RBTRACE1/RBTRACE2 header up front with load_binary's parser (width,
// name, word count — the count is bounds-checked against the file size
// before any read) and then serves the words block by block, so a multi-GB
// archive never has to fit in RAM. The word sequence is identical to
// load_trace_file's; `length()` reports the header's word count; `clone()`
// reopens the file. Throws std::runtime_error on open/parse failure and on
// a file truncated mid-stream.
std::unique_ptr<TraceSource> open_trace_stream(const std::string& path);

// One word per line, with a header row ("cycle,word_hex").
void export_csv(const Trace& trace, std::ostream& os);

}  // namespace razorbus::trace
