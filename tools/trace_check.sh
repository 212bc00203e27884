#!/usr/bin/env bash
# Trace artifact schema + analyzer consistency gate.
#
# Run A drives casa_cli single-threaded (adpcm / CASA) with --trace-json
# and --trace-summary and validates the emitted "casa-trace v1" artifact:
#   * every top-level key is present, the schema string matches, and run
#     provenance fields are non-empty strings;
#   * every event tid has a thread_name metadata record, begin/end events
#     balance per thread, and flow tails/heads pair up by id;
#   * the analyzer's "critical path: N ns" line equals the run_casa span's
#     begin->end duration computed from the artifact — on a single-threaded
#     run the critical path IS the flow span's wall time, exactly.
# Run B selects the generic LP-based ILP (--technique=casa-ilp; the default
# CASA engine is the single-threaded specialized branch & bound) with
# --ilp-threads=2 and asserts the parallel solver left named worker tracks
# (ilp-0, ilp-1, ...) and flow-linked ilp.subtree spans.
#
# Registered as a ctest (trace_check); exits 77 (ctest SKIP) on hosts
# without python3, hard-fails on a missing casa_cli binary.
#
# Usage:
#   tools/trace_check.sh [--build-dir DIR]
set -euo pipefail

repo_root="$(cd "$(dirname -- "$0")/.." && pwd)"
build_dir="$repo_root/build"
while [[ $# -gt 0 ]]; do
  case "$1" in
    --build-dir) build_dir="${2:?--build-dir needs a value}"; shift 2 ;;
    *) echo "unknown argument: $1" >&2; exit 2 ;;
  esac
done

cli="$build_dir/tools/casa_cli"
if [[ ! -x "$cli" ]]; then
  echo "trace_check: FAIL — casa_cli binary missing: $cli" >&2
  echo "  build it first: cmake -B build -G Ninja && cmake --build build" >&2
  exit 1
fi
if ! command -v python3 > /dev/null 2>&1; then
  echo "trace_check: SKIP — python3 not found on this host" >&2
  exit 77
fi

trace_a="$(mktemp /tmp/trace_check_a.XXXXXX.json)"
trace_b="$(mktemp /tmp/trace_check_b.XXXXXX.json)"
summary_a="$(mktemp /tmp/trace_check_a.XXXXXX.txt)"
trap 'rm -f "$trace_a" "$trace_b" "$summary_a"' EXIT

echo "trace_check: run A — single-threaded --trace-json + --trace-summary"
"$cli" --workload=adpcm --technique=casa --spm=256 --ilp-threads=1 \
       --trace-json "$trace_a" --trace-summary > "$summary_a"

echo "trace_check: run B — generic ILP, --ilp-threads=2 for named worker tracks"
"$cli" --workload=adpcm --technique=casa-ilp --spm=256 --ilp-threads=2 \
       --trace-json "$trace_b" > /dev/null

python3 - "$trace_a" "$summary_a" "$trace_b" <<'EOF'
import json, re, sys

failures = []


def fail(key, why):
    failures.append(f"{key}: {why}")


def load(path, label):
    try:
        return json.load(open(path))
    except (OSError, json.JSONDecodeError) as e:
        print(f"trace_check: FAIL\n  - {label} artifact {path} unreadable: {e}")
        sys.exit(1)


def ts_ns(event):
    # write_trace_json emits ts as microseconds with exactly three decimals,
    # so nanosecond arithmetic on the parsed floats is lossless.
    return round(event["ts"] * 1000)


def validate(doc, label):
    """Schema + structural checks shared by both runs. Returns the events."""
    for key in ("schema", "run", "displayTimeUnit", "dropped", "traceEvents"):
        if key not in doc:
            fail(f"{label}.{key}", "missing from artifact")
    if doc.get("schema") != "casa-trace v1":
        fail(f"{label}.schema",
             f"expected 'casa-trace v1', got {doc.get('schema')!r}")
    for key in ("tool", "git", "build_type", "compiler"):
        v = doc.get("run", {}).get(key)
        if not isinstance(v, str) or not v:
            fail(f"{label}.run.{key}", f"must be a non-empty string, got {v!r}")
    if doc.get("dropped") != 0:
        fail(f"{label}.dropped",
             f"expected a complete trace, got {doc.get('dropped')!r} drops")

    events = doc.get("traceEvents", [])
    if not events:
        fail(f"{label}.traceEvents", "empty")
    named_tids = set()
    depth = {}
    flows = {}
    for e in events:
        for key in ("name", "ph", "pid", "tid"):
            if key not in e:
                fail(f"{label}.traceEvents", f"event missing {key!r}: {e!r}")
                return events
        if e["ph"] == "M":
            if e["name"] == "thread_name":
                named_tids.add(e["tid"])
            continue
        if "ts" not in e:
            fail(f"{label}.traceEvents", f"event missing 'ts': {e!r}")
            return events
        if e["ph"] == "B":
            depth[e["tid"]] = depth.get(e["tid"], 0) + 1
        elif e["ph"] == "E":
            depth[e["tid"]] = depth.get(e["tid"], 0) - 1
            if depth[e["tid"]] < 0:
                fail(f"{label}.tid{e['tid']}", "end before matching begin")
        elif e["ph"] in ("s", "f"):
            flows.setdefault(e["id"], []).append(e["ph"])
    for tid, d in depth.items():
        if d != 0:
            fail(f"{label}.tid{tid}", f"{d} unbalanced begin/end events")
    for fid, sides in flows.items():
        if sorted(sides) != ["f", "s"]:
            fail(f"{label}.flow{fid}",
                 f"expected one tail + one head, got {sides}")
    used = {e["tid"] for e in events if e["ph"] != "M"}
    for tid in sorted(used - named_tids):
        fail(f"{label}.tid{tid}", "no thread_name metadata for this track")
    return events


# --- Run A: schema plus analyzer consistency -------------------------------
doc_a = load(sys.argv[1], "run A")
events_a = validate(doc_a, "runA")

begin = end = None
for e in events_a:
    if e.get("name") == "run_casa" and e.get("ph") == "B" and begin is None:
        begin = ts_ns(e)
    if e.get("name") == "run_casa" and e.get("ph") == "E":
        end = ts_ns(e)
if begin is None or end is None:
    fail("runA.run_casa", "begin/end pair missing from the artifact")
else:
    wall = end - begin
    summary = open(sys.argv[2]).read()
    m = re.search(r"critical path: (\d+) ns", summary)
    if not m:
        fail("runA.summary", "no 'critical path: N ns' line in --trace-summary")
    elif int(m.group(1)) != wall:
        fail("runA.critical_path",
             f"summary says {m.group(1)} ns but the run_casa span is "
             f"{wall} ns — single-threaded critical path must equal the "
             "flow span's wall time exactly")

# --- Run B: parallel solver leaves named tracks + flow-linked subtrees -----
doc_b = load(sys.argv[3], "run B")
events_b = validate(doc_b, "runB")

worker_names = [e["args"]["name"] for e in events_b
                if e["ph"] == "M" and e["name"] == "thread_name"
                and re.fullmatch(r"ilp-\d+", e["args"].get("name", ""))]
if len(worker_names) < 2:
    fail("runB.tracks",
         f"expected >= 2 named ilp worker tracks, got {worker_names}")
subtrees = [e for e in events_b
            if e.get("name") == "ilp.subtree" and e.get("ph") == "B"]
heads = [e for e in events_b
         if e.get("name") == "ilp.subtree" and e.get("ph") == "f"]
if not subtrees:
    fail("runB.ilp.subtree", "no subtree spans in the parallel run")
if len(heads) != len(subtrees):
    fail("runB.ilp.subtree",
         f"{len(subtrees)} subtree spans but {len(heads)} flow heads — "
         "every subtree must be flow-linked to its scheduling span")

if failures:
    print("trace_check: FAIL")
    for f in failures:
        print(f"  - {f}")
    sys.exit(1)

print(f"trace_check: OK (run A: {len(events_a)} events, "
      f"run B: {len(events_b)} events, "
      f"{len(subtrees)} flow-linked subtrees on "
      f"{len(worker_names)} ilp workers)")
EOF
