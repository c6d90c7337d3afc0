#include "datacutter/buffer.h"

namespace cgp::dc {

void Buffer::write_string(std::string_view s) {
  write<std::uint32_t>(static_cast<std::uint32_t>(s.size()));
  write_bytes(s.data(), s.size());
}

std::string Buffer::read_string() {
  const auto n = read<std::uint32_t>();
  if (n > remaining()) throw std::out_of_range("Buffer::read_string past end");
  std::string s(n, '\0');
  read_bytes(s.data(), n);
  return s;
}

}  // namespace cgp::dc
