#!/usr/bin/env bash
# Coverage census: lists the src/ functions that neither the benchmark nor
# the paper benches execute.
#
# Exports the committed tree (git archive HEAD) into a temp dir and builds
# it twice with --coverage:
#   * perfbench/ (perf_bench and the library), which runs every
#     BENCHMARK.json workload untraced and traced, 3 s each at seed 1;
#   * the root project with only the bench/ programs, each run once in its
#     default smoke mode.
# gcov's per-function call counts are then summed over both trees, and
# every function defined under src/ that reached zero calls is printed as
# `src/<file>:<line> <function>`, sorted by file and line. A workload or
# bench that exits nonzero is reported on stderr and does not stop the
# census. Commit first: uncommitted edits are not measured.
#
# Usage: scripts/census.sh
set -euo pipefail
cd "$(dirname "$0")/.."

jobs=$(nproc 2>/dev/null || echo 4)
jobs=$((jobs > 4 ? 4 : jobs))
work="$(mktemp -d -t strassen_census.XXXXXX)"
trap 'rm -rf "${work}"' EXIT
git archive HEAD | tar -x -C "${work}"

coverage=(-DCMAKE_BUILD_TYPE=Release -DCMAKE_CXX_FLAGS=--coverage
  -DCMAKE_EXE_LINKER_FLAGS=--coverage)

echo "census: building perfbench/ with coverage" >&2
cmake -S "${work}/perfbench" -B "${work}/perf" "${coverage[@]}" \
  > "${work}/perf.log"
cmake --build "${work}/perf" -j "${jobs}" --target perf_bench \
  >> "${work}/perf.log"
mapfile -t workloads < <(python3 -c '
import json, sys
for w in json.load(open(sys.argv[1]))["workloads"]:
    print(w["name"])' "${work}/BENCHMARK.json")
for workload in "${workloads[@]}"; do
  for trace in 0 1; do
    echo "census: ${workload} trace ${trace}" >&2
    python3 "${work}/perfbench/run.py" --workload "${workload}" --seed 1 \
      --seconds 3 --trace "${trace}" --bin "${work}/perf/perf_bench" \
      > /dev/null || echo "census: ${workload} trace ${trace} exited $?" >&2
  done
done

echo "census: building bench/ with coverage" >&2
cmake -S "${work}" -B "${work}/paper" "${coverage[@]}" \
  -DSTRASSEN_BUILD_TESTS=OFF -DSTRASSEN_BUILD_EXAMPLES=OFF \
  -DSTRASSEN_BUILD_TOOLS=OFF > "${work}/paper.log"
cmake --build "${work}/paper" -j "${jobs}" >> "${work}/paper.log"
for bin in "${work}"/paper/bench/bench_*; do
  echo "census: $(basename "${bin}")" >&2
  (cd "${work}" && "${bin}" > /dev/null) ||
    echo "census: $(basename "${bin}") exited $?" >&2
done

echo "census: merging gcov counts" >&2
python3 - "${work}" <<'EOF'
import json, os, subprocess, sys
from collections import defaultdict

work = sys.argv[1]
src = os.path.join(work, "src") + os.sep
calls = defaultdict(int)  # (file, line, name) -> calls over both trees
for tree in ("perf", "paper"):
    for root, _, files in os.walk(os.path.join(work, tree)):
        for f in files:
            if not f.endswith(".gcno"):
                continue
            out = subprocess.run(
                ["gcov", "--json-format", "--stdout", os.path.join(root, f)],
                cwd=root, capture_output=True, text=True).stdout
            for line in out.splitlines():
                if not line.startswith("{"):
                    continue
                for fobj in json.loads(line)["files"]:
                    path = os.path.normpath(os.path.join(root, fobj["file"]))
                    if not path.startswith(src):
                        continue
                    rel = "src/" + path[len(src):]
                    for fn in fobj["functions"]:
                        key = (rel, fn["start_line"], fn["demangled_name"])
                        calls[key] += fn["execution_count"]
for (rel, line, name), n in sorted(calls.items()):
    if n == 0:
        print(f"{rel}:{line} {name}")
EOF
