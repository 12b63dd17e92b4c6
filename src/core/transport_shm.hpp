// Old header of the staged transport over the shared-memory mesh. Kept,
// declaration-only, because perfbench/ includes it and casts to
// ShmTransport; new code includes core/transport_staged.hpp.
#pragma once

#include "core/transport_staged.hpp"

namespace gbsp {

using ShmTransport = StagedTransport;

}  // namespace gbsp
