#!/usr/bin/env bash
# Two-phase PGO driver for mg5 (PR 9).
#
#   tools/pgo.sh [training-command...]
#
# 1. Configures + builds the pgo-gen preset (instrumented).
# 2. Runs the training workload — by default the event-service
#    microbench plus one profiled simulation example, i.e. exactly
#    the code the optimization targets. Pass a custom command to
#    train on something else.
# 3. Reconfigures the same tree as pgo-use and rebuilds, consuming
#    the .gcda profiles left in place by step 2.
#
# The result lives in build-pgo/. Compare against a plain release
# build with: build-pgo/bench/abl_frontend --json /tmp/pgo.json
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== PGO phase 1: instrumented build (pgo-gen)"
cmake --preset pgo-gen
cmake --build --preset pgo-gen -j"$(nproc)"

echo "== PGO phase 2: training run"
if [ "$#" -gt 0 ]; then
    "$@"
else
    # Default training: the frontend microbench exercises the
    # service loop; the example exercises a full profiled run.
    ./build-pgo/bench/abl_frontend --json /tmp/g5p_pgo_train.json
    if [ -x ./build-pgo/examples/profile_simulation ]; then
        ./build-pgo/examples/profile_simulation >/dev/null
    fi
fi

echo "== PGO phase 3: optimized rebuild (pgo-use)"
cmake --preset pgo-use
cmake --build --preset pgo-use -j"$(nproc)"

echo "PGO build ready in build-pgo/"
