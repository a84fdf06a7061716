#include "util/fsio.hpp"

#include <atomic>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <istream>
#include <random>
#include <sstream>
#include <stdexcept>
#include <system_error>

namespace razorbus::util {

namespace {

// Random per-process token for temp-file names. Entropy is exactly what
// cross-process uniqueness needs, and the token never reaches simulation
// state: published bytes are identical whatever it draws.
std::uint64_t process_token() {
  // razorlint: allow(no-raw-random): naming entropy, not a simulation draw.
  std::random_device rd;
  return (static_cast<std::uint64_t>(rd()) << 32) ^ rd();
}

}  // namespace

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return text.str();
}

void write_file_atomic(const std::string& path, const std::string& content) {
  static const std::uint64_t tmp_token = process_token();
  // razorlint: allow(no-mutable-static): temp-name serial — naming only,
  // never simulation state; file contents are identical regardless.
  static std::atomic<unsigned> tmp_serial{0};
  std::ostringstream tmp_name;
  tmp_name << path << ".tmp." << std::hex << tmp_token << "." << tmp_serial++;
  const std::string tmp_path = tmp_name.str();
  {
    std::ofstream out(tmp_path, std::ios::binary | std::ios::trunc);
    if (!out) throw std::runtime_error("cannot write " + tmp_path);
    out << content;
    out.flush();
    if (!out) {
      std::error_code ec;
      std::filesystem::remove(tmp_path, ec);
      throw std::runtime_error("short write to " + tmp_path);
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp_path, path, ec);
  if (ec) {
    std::error_code ignore;
    std::filesystem::remove(tmp_path, ignore);
    throw std::runtime_error("cannot rename " + tmp_path + " -> " + path + ": " +
                             ec.message());
  }
}

bool claim_fits_stream(std::istream& is, std::uint64_t count, std::size_t elem_size) {
  const std::istream::pos_type data_pos = is.tellg();
  if (data_pos == std::istream::pos_type(-1)) return true;  // unseekable: let read fail
  is.seekg(0, std::ios::end);
  const std::istream::pos_type end_pos = is.tellg();
  is.seekg(data_pos);
  if (!is || end_pos < data_pos) return false;
  const auto remaining = static_cast<std::uint64_t>(end_pos - data_pos);
  return count <= remaining / elem_size;
}

}  // namespace razorbus::util
