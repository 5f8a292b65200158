#include "fileio/dataset_reader.h"

#include <dirent.h>
#include <sys/stat.h>

#include <algorithm>

namespace hepq {

bool IsDirectory(const std::string& path) {
  struct stat st {};
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

Result<std::vector<std::string>> ListLaqFiles(const std::string& directory) {
  DIR* dir = ::opendir(directory.c_str());
  if (dir == nullptr) {
    return Status::Invalid("cannot open dataset directory '" + directory +
                           "'");
  }
  std::vector<std::string> paths;
  while (dirent* entry = ::readdir(dir)) {
    const std::string name = entry->d_name;
    if (name.size() > 4 && name.compare(name.size() - 4, 4, ".laq") == 0) {
      paths.push_back(directory + "/" + name);
    }
  }
  ::closedir(dir);
  if (paths.empty()) {
    return Status::Invalid("no .laq files in dataset directory '" +
                           directory + "'");
  }
  std::sort(paths.begin(), paths.end());
  return paths;
}

}  // namespace hepq
