// Simulated external-resource access. The paper's runtime lets buttons
// "get information from websites" (§4.3, Fig.2); with no network in this
// environment, OpenUrl actions resolve against this in-process catalogue,
// which models page titles and fetch latency (see DESIGN.md §2).
#pragma once

#include <map>
#include <string>
#include <string_view>

#include "util/sim_clock.hpp"
#include "util/types.hpp"

namespace vgbl {

struct WebResource {
  std::string url;
  std::string title;
  std::string summary;     // shown in the message bar when opened
  MicroTime fetch_latency = milliseconds(120);
};

/// A read-only page collection. The built-in pages are built once per
/// process and shared by every session; each session keeps only its own
/// access log (GameSession::resource_log).
class ResourceCatalog {
 public:
  void add(WebResource resource) {
    resources_[resource.url] = std::move(resource);
  }

  /// The page at `url`, or null for unknown urls (a 404, in effect).
  [[nodiscard]] const WebResource* find(const std::string& url) const {
    auto it = resources_.find(url);
    return it == resources_.end() ? nullptr : &it->second;
  }

  /// Built-in encyclopedia used by the examples (computer hardware pages
  /// for the classroom-repair game, etc.). Built on first use; immutable
  /// and safe to read from any thread.
  static const ResourceCatalog& default_pages();

 private:
  std::map<std::string, WebResource> resources_;
};

/// One OpenUrl "fetch" as a session's access log records it. `url` views
/// the OpenUrl action's text in the session's bundle.
struct ResourceAccess {
  std::string_view url;
  MicroTime when;
  bool found;
};

}  // namespace vgbl
