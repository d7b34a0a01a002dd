#ifndef DX_SERVICE_CLIENT_H_
#define DX_SERVICE_CLIENT_H_

#include <string>

#include "src/util/json.h"

namespace dx {

// One ctl round-trip: connect, send the request as a single JSON line, read
// the single JSON response line. Throws std::runtime_error on transport or
// parse failure.
Json CtlRequest(const std::string& host, int port, const Json& request);

// Plain HTTP GET returning the response body (status line checked for 200;
// throws otherwise). Used for /health and /metrics so the smoke tooling
// needs no external HTTP client.
std::string HttpGet(const std::string& host, int port, const std::string& path);

// The dxplorectl command driver (shared by the dxplorectl binary and the
// CLI's `ctl` subcommand). argv holds the arguments after the program name:
//   [--host H] [--port P] [--http-port P] COMMAND [ARGS...]
// Commands: ping, submit, status ID, list, pause ID, resume ID, cancel ID,
// results ID, wait ID [--timeout-seconds S], drain, get PATH.
// Prints the JSON response (or HTTP body) to stdout. Returns 0 on success,
// 1 when the daemon reports an error or `wait` ends non-DONE, 2 on usage
// errors (a malformed number among them, named with its key or flag and
// rejected before any connection is made), 3 on transport failure.
int CtlMain(int argc, char** argv);

}  // namespace dx

#endif  // DX_SERVICE_CLIENT_H_
