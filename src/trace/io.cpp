#include "trace/io.hpp"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>
#include <stdexcept>

#include "util/fsio.hpp"

namespace razorbus::trace {

namespace {
// Version 1: the legacy fixed-32-wire format (magic + name + uint32
// words). Still written for 32-wire traces so archives produced before the
// width-generic datapath stay byte-identical, and always readable.
constexpr char kMagicV1[8] = {'R', 'B', 'T', 'R', 'A', 'C', 'E', '1'};
// Version 2: width-tagged. Layout after the magic: uint32 n_bits, uint64
// name length, name bytes, uint64 word count, then per word
// ceil(n_bits / 64) little-endian uint64 lanes (low lane first).
constexpr char kMagicV2[8] = {'R', 'B', 'T', 'R', 'A', 'C', 'E', '2'};

int lanes_per_word(int n_bits) { return (n_bits + 63) / 64; }

// Stage per-word payload elements through a chunk buffer so that
// multi-million-cycle traces cost a handful of stream writes, not one per
// word. `emit(word, chunk)` appends word's elements to the chunk.
template <typename Elem, typename Emit>
void write_chunked(std::ostream& os, const std::vector<BusWord>& words, Emit emit) {
  constexpr std::size_t kChunkElems = 1 << 17;
  std::vector<Elem> chunk;
  chunk.reserve(std::min<std::size_t>(words.size() * 2, kChunkElems));
  const auto flush = [&os, &chunk] {
    os.write(reinterpret_cast<const char*>(chunk.data()),
             static_cast<std::streamsize>(chunk.size() * sizeof(Elem)));
    chunk.clear();
  };
  for (const BusWord& word : words) {
    emit(word, chunk);
    if (chunk.size() >= kChunkElems) flush();
  }
  if (!chunk.empty()) flush();
}

// The one RBTRACE1/RBTRACE2 parser, behind both load_binary and
// open_trace_stream: the header (width, name, word count — the count is
// bounds-checked against the bytes left in the stream before any payload
// is read or allocated), then the payload a block at a time.
struct TraceHeader {
  bool v1 = false;
  int n_bits = 32;
  std::string name;
  std::uint64_t words = 0;

  std::size_t word_bytes() const {
    return v1 ? sizeof(std::uint32_t)
              : static_cast<std::size_t>(lanes_per_word(n_bits)) * sizeof(std::uint64_t);
  }
};

std::optional<TraceHeader> read_header(std::istream& is) {
  char magic[sizeof(kMagicV1)];
  if (!is.read(magic, sizeof(magic))) return std::nullopt;
  TraceHeader h;
  if (std::memcmp(magic, kMagicV1, sizeof(kMagicV1)) == 0) {
    h.v1 = true;
  } else if (std::memcmp(magic, kMagicV2, sizeof(kMagicV2)) == 0) {
    std::uint32_t n_bits = 0;
    if (!is.read(reinterpret_cast<char*>(&n_bits), sizeof(n_bits)) || n_bits == 0 ||
        n_bits > static_cast<std::uint32_t>(BusWord::kMaxBits))
      return std::nullopt;
    h.n_bits = static_cast<int>(n_bits);
  } else {
    return std::nullopt;
  }
  std::uint64_t name_len = 0;
  if (!is.read(reinterpret_cast<char*>(&name_len), sizeof(name_len)) || name_len > 4096)
    return std::nullopt;
  h.name.resize(name_len);
  if (!is.read(h.name.data(), static_cast<std::streamsize>(name_len)))
    return std::nullopt;
  if (!is.read(reinterpret_cast<char*>(&h.words), sizeof(h.words)) ||
      h.words > (1ull << 33) || !util::claim_fits_stream(is, h.words, h.word_bytes()))
    return std::nullopt;
  return h;
}

// Reads the next `n` payload words into dst (`raw` is scratch); false on a
// short read.
bool read_words(std::istream& is, const TraceHeader& h, BusWord* dst, std::size_t n,
                std::vector<char>& raw) {
  const std::size_t bytes = h.word_bytes();
  raw.resize(n * bytes);
  if (!is.read(raw.data(), static_cast<std::streamsize>(raw.size()))) return false;
  const char* p = raw.data();
  for (std::size_t w = 0; w < n; ++w, p += bytes) {
    if (h.v1) {
      std::uint32_t word = 0;
      std::memcpy(&word, p, sizeof(word));
      dst[w] = BusWord(word);
    } else {
      std::uint64_t lo = 0;
      std::uint64_t hi = 0;
      std::memcpy(&lo, p, sizeof(lo));
      if (bytes > sizeof(lo)) std::memcpy(&hi, p + sizeof(lo), sizeof(hi));
      dst[w] = BusWord::from_lanes(lo, hi);
    }
  }
  return true;
}

// Incremental reader behind open_trace_stream: the header is parsed once
// at construction, after which each next_block reads and assembles at most
// `max` words' worth of payload.
class FileTraceSource final : public TraceSource {
 public:
  explicit FileTraceSource(std::string path) : path_(std::move(path)) {
    is_.open(path_, std::ios::binary);
    if (!is_) throw std::runtime_error("open_trace_stream: cannot open " + path_);
    std::optional<TraceHeader> header = read_header(is_);
    if (!header)
      throw std::runtime_error("open_trace_stream: not a trace file: " + path_);
    header_ = *std::move(header);
    remaining_ = header_.words;
  }

  std::size_t next_block(BusWord* dst, std::size_t max) override {
    const std::size_t n =
        static_cast<std::size_t>(std::min<std::uint64_t>(max, remaining_));
    if (n == 0) return 0;
    if (!read_words(is_, header_, dst, n, raw_))
      throw std::runtime_error("open_trace_stream: truncated trace file: " + path_);
    remaining_ -= n;
    return n;
  }

  int n_bits() const override { return header_.n_bits; }
  const std::string& name() const override { return header_.name; }
  std::optional<std::uint64_t> length() const override { return header_.words; }
  std::unique_ptr<TraceSource> clone() const override {
    return std::make_unique<FileTraceSource>(path_);
  }

 private:
  std::string path_;
  std::ifstream is_;
  TraceHeader header_;
  std::uint64_t remaining_ = 0;
  std::vector<char> raw_;
};

}  // namespace

std::unique_ptr<TraceSource> open_trace_stream(const std::string& path) {
  return std::make_unique<FileTraceSource>(path);
}

void save_binary(const Trace& trace, std::ostream& os) {
  const std::uint64_t name_len = trace.name.size();
  const std::uint64_t n = trace.words.size();
  if (trace.n_bits == 32) {
    os.write(kMagicV1, sizeof(kMagicV1));
    os.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
    os.write(trace.name.data(), static_cast<std::streamsize>(name_len));
    os.write(reinterpret_cast<const char*>(&n), sizeof(n));
    write_chunked<std::uint32_t>(
        os, trace.words, [](const BusWord& word, std::vector<std::uint32_t>& chunk) {
          chunk.push_back(word.low32());
        });
    return;
  }
  os.write(kMagicV2, sizeof(kMagicV2));
  const auto n_bits = static_cast<std::uint32_t>(trace.n_bits);
  os.write(reinterpret_cast<const char*>(&n_bits), sizeof(n_bits));
  os.write(reinterpret_cast<const char*>(&name_len), sizeof(name_len));
  os.write(trace.name.data(), static_cast<std::streamsize>(name_len));
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  const int lanes = lanes_per_word(trace.n_bits);
  write_chunked<std::uint64_t>(
      os, trace.words, [lanes](const BusWord& word, std::vector<std::uint64_t>& chunk) {
        for (int l = 0; l < lanes; ++l) chunk.push_back(word.lane(l));
      });
}

std::optional<Trace> load_binary(std::istream& is) {
  const std::optional<TraceHeader> header = read_header(is);
  if (!header) return std::nullopt;
  Trace trace;
  trace.name = header->name;
  trace.n_bits = header->n_bits;
  // Bulk-read the payload in chunks, growing the words as they arrive: on an
  // unseekable stream the claimed count is unchecked, and reserving it up
  // front would throw std::bad_alloc for a corrupt one.
  constexpr std::uint64_t kChunkWords = 1 << 16;
  std::vector<char> raw;
  for (std::uint64_t done = 0; done < header->words;) {
    const auto batch =
        static_cast<std::size_t>(std::min(header->words - done, kChunkWords));
    trace.words.resize(trace.words.size() + batch);
    if (!read_words(is, *header, trace.words.data() + done, batch, raw))
      return std::nullopt;
    done += batch;
  }
  return trace;
}

void save_trace_file(const Trace& trace, const std::string& path) {
  std::ofstream os(path, std::ios::binary | std::ios::trunc);
  if (!os) throw std::runtime_error("save_trace_file: cannot open " + path);
  save_binary(trace, os);
  if (!os) throw std::runtime_error("save_trace_file: write failed for " + path);
}

Trace load_trace_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  if (!is) throw std::runtime_error("load_trace_file: cannot open " + path);
  auto trace = load_binary(is);
  if (!trace) throw std::runtime_error("load_trace_file: not a trace file: " + path);
  return *std::move(trace);
}

void export_csv(const Trace& trace, std::ostream& os) {
  os << "cycle,word_hex\n";
  const int digits = (trace.n_bits + 3) / 4;
  char buffer[64];
  for (std::size_t i = 0; i < trace.words.size(); ++i) {
    const BusWord& w = trace.words[i];
    if (digits <= 16) {
      std::snprintf(buffer, sizeof(buffer), "%zu,%0*llx\n", i, digits,
                    static_cast<unsigned long long>(w.low64()));
    } else {
      std::snprintf(buffer, sizeof(buffer), "%zu,%0*llx%016llx\n", i, digits - 16,
                    static_cast<unsigned long long>(w.lane(1)),
                    static_cast<unsigned long long>(w.lane(0)));
    }
    os << buffer;
  }
}

}  // namespace razorbus::trace
