#!/usr/bin/env bash
# Smoke driver for the cross-process transports: drives the REAL bsp_launch
# runner (fork/exec, one OS process per rank, GBSP_* environment) against
# the probe, the app suite, and the delivery bench — the multi-process path
# the in-process test suites (ctest -L tcp / -L shm) deliberately do not
# cover.
#
#   scripts/run_proc_smoke.sh [transports] [nprocs] [build-dir]
#
# Defaults: "tcp shm" over 4 ranks against ./build. `transports` is a
# space-separated subset of {tcp, shm} (quote it: "tcp shm"). Over tcp the
# port base is derived from this shell's pid so concurrent invocations do
# not fight over ports; over shm the segment name is derived the same way
# so concurrent invocations never rendezvous. Exits non-zero on the first
# failing phase, propagating bsp_launch's exit status (which is the first
# failing rank's). The --timeout watchdog bounds every phase so a wedged
# rank fails the smoke instead of hanging it.
set -euo pipefail

transports="${1:-tcp shm}"
nprocs="${2:-4}"
build="${3:-build}"
launch="${build}/tools/bsp_launch"
probe="${build}/examples/bsp_probe"
suite="${build}/tools/bsp_app_suite"
bench="${build}/bench/bench_ablation_delivery"

for bin in "${launch}" "${probe}" "${suite}"; do
  if [[ ! -x "${bin}" ]]; then
    echo "run_proc_smoke: ${bin} not built (cmake --build ${build})" >&2
    exit 2
  fi
done

# The tcp port base, from this shell's pid. Every loop shifts it by 192, so
# the span keeps each loop's whole window [port, port + nprocs - 1] inside
# [1024, 21000): below Linux's ephemeral range (32768-60999), where a
# listener's port can already be some connection's source port, and below
# the port blocks of test_transport_tcp (21000-32647).
loops=$(wc -w <<< "${transports}")
span=$((21000 - 1024 - 192 * (loops - 1) - nprocs + 1))
if (( span < 1 )); then
  echo "run_proc_smoke: ${nprocs} ranks do not fit below port 21000" >&2
  exit 2
fi
port=$((1024 + ($$ % span)))

echo "=== proc smoke: launcher rejects a bad invocation cleanly"
if "${launch}" -p 0 -- true 2>/dev/null; then
  echo "run_proc_smoke: bsp_launch accepted -p 0" >&2
  exit 1
fi

for t in ${transports}; do
  case "${t}" in
    tcp)
      wire=(--transport tcp --port "${port}")
      where="loopback TCP (port base ${port})" ;;
    shm)
      wire=(--transport shm --shm-name "smoke.$$.${t}")
      where="shared memory (segment name smoke.$$.${t})" ;;
    *)
      echo "run_proc_smoke: unknown transport \"${t}\" (expected tcp or shm)" >&2
      exit 2 ;;
  esac

  echo "=== ${t} smoke 1/3: bsp_probe, ${nprocs} ranks over ${where}"
  "${launch}" -p "${nprocs}" --timeout 120 "${wire[@]}" -- \
    "${probe}" --transport "${t}" --steps 50

  echo "=== ${t} smoke 2/3: full app suite (cannon, mst, sample sort), ${nprocs} ranks over ${where}"
  "${launch}" -p "${nprocs}" --timeout 300 "${wire[@]}" -- \
    "${suite}" --transport "${t}"

  if [[ -x "${bench}" ]]; then
    echo "=== ${t} smoke 3/3: delivery bench, ${nprocs} ranks over ${where}"
    "${launch}" -p "${nprocs}" --timeout 300 "${wire[@]}" -- \
      "${bench}" --transport "${t}" --steps 100 --msgs 500
  else
    echo "=== ${t} smoke 3/3: skipped (${bench} not built; bench phase is optional)"
  fi

  # Phase isolation between transport loops on slow hosts: fresh port
  # window per loop (shm names are already per-transport).
  port=$((port + 192))
done

echo "run_proc_smoke: ${nprocs}-rank smoke passed for: ${transports}"
