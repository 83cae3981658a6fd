// PDA300 fixture: raw I/O with no modeled-clock charge in the function.
#include <unistd.h>

#include <cstdio>
#include <cstddef>

void charge_io(std::size_t bytes);

// Uncharged: every raw site in the function is flagged.
unsigned long uncharged_read(const char* path) {
  std::FILE* f = std::fopen(path, "rb");  // expect-PDA300
  if (f == nullptr) return 0;
  char buf[16];
  const auto n = std::fread(buf, 1, sizeof(buf), f);  // expect-PDA300
  std::fclose(f);
  return static_cast<unsigned long>(n);
}

// Positioned descriptor I/O is raw I/O too.
long uncharged_pread(int fd, char* buf) {
  return ::pread(fd, buf, 16, 0);  // expect-PDA300
}

// Charged in the same function: clean.
unsigned long charged_read_is_clean(const char* path) {
  std::FILE* f = std::fopen(path, "rb");
  if (f == nullptr) return 0;
  char buf[16];
  const auto n = std::fread(buf, 1, sizeof(buf), f);
  charge_io(n);
  std::fclose(f);
  return static_cast<unsigned long>(n);
}

// Annotated wrapper: inventoried, not flagged.
void wrapped_write_is_clean(const char* path) {
  // pdc: io-wrapper(fixture wrapper: the caller pays at settle time)
  std::FILE* f = std::fopen(path, "wb");
  if (f != nullptr) {
    std::fwrite(path, 1, 1, f);
    std::fclose(f);
  }
}

// A wrapper annotation must carry a reason.
void bare_wrapper(const char* path) {  // expect-PDA300 (bare wrapper)
  // pdc: io-wrapper() -- reasonless annotation
  std::FILE* f = std::fopen(path, "wb");
  if (f != nullptr) std::fclose(f);
}
