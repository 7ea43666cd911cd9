#pragma once
// The edge session clients (edge_client.h, edge_swarm.h) dial with
// net::dial (net/reactor.h), source-address bind included.

#include "net/reactor.h"

namespace bluedove::edge {

using net::dial;

}  // namespace bluedove::edge
