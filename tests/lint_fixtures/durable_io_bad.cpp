// Fixture: a store appending to its log with raw stdio and streams — must
// fire durable-file-io. Store files go through util/fileio or util/framed.
#include <cstdio>
#include <filesystem>
#include <fstream>

namespace vgbl {

void bad_append(const char* path, const char* record, size_t size) {
  std::FILE* file = std::fopen(path, "ab");
  std::fwrite(record, 1, size, file);
  std::fflush(file);
  std::fclose(file);
  std::filesystem::resize_file(path, size);
  std::ofstream out(path);
  std::fstream io(path);
}

}  // namespace vgbl
