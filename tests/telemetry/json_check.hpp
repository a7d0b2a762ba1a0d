// JSON well-formedness checks for telemetry output tests: "would a real
// JSON parser accept this?", answered by the RFC 8259 parser the
// evaluation service reads requests with (serve/json.hpp).
#pragma once

#include <sstream>
#include <string>

#include "common/error.hpp"
#include "serve/json.hpp"

namespace adsec::testjson {

inline bool valid_json(const std::string& text) {
  try {
    (void)serve::JsonValue::parse(text);
    return true;
  } catch (const Error&) {
    return false;
  }
}

// JSON Lines: every non-empty line is its own valid document.
inline bool valid_jsonl(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (!valid_json(line)) return false;
  }
  return true;
}

}  // namespace adsec::testjson
