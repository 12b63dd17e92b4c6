// Old header of the staged transport over the in-process socketpair mesh.
// Kept, declaration-only, because perfbench/ includes it and casts to
// SocketTransport; new code includes core/transport_staged.hpp.
#pragma once

#include "core/transport_staged.hpp"

namespace gbsp {

using SocketTransport = StagedTransport;

}  // namespace gbsp
