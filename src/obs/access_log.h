// Structured access logging: one JSON line per request, appended to a
// file shared by every worker of a serve_tool process
// (`--access-log FILE`). The log is an observability side-channel — it can
// never affect request handling or response bytes; a write failure is
// reported once at open time and otherwise ignored.
#ifndef SDLC_OBS_ACCESS_LOG_H
#define SDLC_OBS_ACCESS_LOG_H

#include <fstream>
#include <memory>
#include <mutex>
#include <string>

namespace sdlc::obs {

class AccessLog {
public:
    /// Opens `path` for appending. Returns nullptr and writes *error (when
    /// non-null) if the file cannot be opened.
    static std::shared_ptr<AccessLog> open(const std::string& path, std::string* error);

    /// Appends one line (a complete JSON object, no trailing newline) and
    /// flushes so crashed processes lose at most the in-flight line.
    void write_line(const std::string& json_line);

private:
    explicit AccessLog(std::ofstream out) : out_(std::move(out)) {}

    std::mutex mutex_;
    std::ofstream out_;
};

}  // namespace sdlc::obs

#endif  // SDLC_OBS_ACCESS_LOG_H
