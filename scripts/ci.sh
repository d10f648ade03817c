#!/bin/sh
# CI gate: build (which also enforces the architecture rules, held by
# alerts made errors in the dune files), run the tier-1 test suite, then
# the CLI behaviour gates: lint, TV, loop and memory coverage, contracts,
# store, registry, determinism, hunt, kernel equivalence and serve smokes.
set -eu
cd "$(dirname "$0")/.."

# tracked-files gate: CI must leave the work tree as it found it; record
# the status now and compare at the end (skipped outside a git work tree)
IN_GIT=false
if git rev-parse --is-inside-work-tree > /dev/null 2>&1; then
  IN_GIT=true
  GIT_STATUS_BEFORE=$(git status --porcelain)
fi

dune build
dune runtest

# formatting gate: only enforced when an .ocamlformat file is present
# (dune build @fmt fails loudly without one)
if [ -f .ocamlformat ]; then
  dune build @fmt
fi

# The architecture rules are compile errors, not greps: each guarded
# function carries an alert in its .mli (Backend.run, Interp.render,
# Dominance.compute, Cfg.of_func), made an error by the root dune file,
# lib/harness/dune or a floating attribute in the files the rule covers,
# so `dune build` above already enforced them (DESIGN.md §2).

# lint gate: every shipped corpus module must be free of lint errors
# (warnings are allowed; the exit code is 1 only on errors)
./_build/default/bin/tbct_cli.exe lint --all

# memory-lint gate: the corpus must also be clean under the four memory
# rules (three of which are warnings, so the error exit above cannot see
# them)
if ./_build/default/bin/tbct_cli.exe lint --all --json \
    | grep -Eq '"rule":"(possible-out-of-bounds|uninitialized-load|dead-store|redundant-load)"'; then
  echo "CI: corpus modules carry memory-lint findings" >&2
  exit 1
fi

# translation-validation gate: every corpus module — including the looping
# corpus — must validate cleanly through every target's pipeline — zero
# Mismatch verdicts (exit 1 on any); abstentions are allowed but never
# count as bugs
TVSWEEP=$(mktemp)
for target in AMD-LLPC Mesa Mesa-Old NVIDIA Pixel-5 Pixel-4 spirv-opt \
              spirv-opt-old SwiftShader; do
  ./_build/default/bin/tbct_cli.exe tv --all --target "$target" --json \
      > "$TVSWEEP"
  # memory-coverage gate: with the access-path analysis licensing the
  # symbolic memory model, no corpus module may abstain for the
  # dynamic-index reason on any target
  if grep -q '"reason":"dynamic-index' "$TVSWEEP"; then
    echo "CI: dynamic-index abstention on target $target — the memory" \
         "analysis no longer covers the corpus" >&2
    exit 1
  fi
done
rm -f "$TVSWEEP"

# loop-coverage gate: on the counted-loop corpus the oracle must decide
# (Equivalent or Mismatch, not Abstained) at least 90% of the modules —
# the whole point of the loop-aware analysis
COUNTED="loop_counted loop_nested_counted loop_to_counted \
         loop_uniform_clamped loop_mode_clamped"
DECIDED=0; TOTAL=0
for name in $COUNTED; do
  TOTAL=$((TOTAL + 1))
  if ! ./_build/default/bin/tbct_cli.exe tv --corpus "$name" --json \
      | grep -q '"verdict":"abstained"'; then
    DECIDED=$((DECIDED + 1))
  fi
done
if [ $((DECIDED * 10)) -lt $((TOTAL * 9)) ]; then
  echo "CI: only $DECIDED/$TOTAL counted-loop modules decided by TV —" \
       "abstain rate exceeds the 10% ceiling" >&2
  exit 1
fi

# analyze smoke: the loop/range report must prove the clamped uniform
# loop's trip bound (the canonical widening + refinement test case)
if ! ./_build/default/bin/tbct_cli.exe analyze --corpus loop_uniform_clamped \
    --loops | grep -q "trip bound 8"; then
  echo "CI: tbct analyze no longer proves the clamped uniform trip bound" >&2
  exit 1
fi
if ! ./_build/default/bin/tbct_cli.exe analyze --corpus loop_uniform_raw \
    --loops | grep -q "trip bound unproven"; then
  echo "CI: tbct analyze claims a bound for the unclamped uniform loop" >&2
  exit 1
fi

# contract-checked campaign smoke: a short run with the transformation
# contract checker on; any breach raises a Violation (exit code 2)
./_build/default/bin/tbct_cli.exe campaign --seeds 20 --check-contracts

# store invariant: all harness file I/O flows through Tbct_store (the CAS,
# journal and bug bank); no harness module opens files itself.  This one
# stays a grep: Stdlib functions carry no alert, and a shadowing prelude
# would cost more lines than this check
if grep -n "open_in\|open_out\|Unix\.openfile" lib/harness/*.ml; then
  echo "CI: direct file I/O in lib/harness — persistence must flow" \
       "through Tbct_store" >&2
  exit 1
fi

# store smoke: campaign into a store, kill it by truncating the journal,
# resume, and require the bit-identical hit list the journal promises
STORE=$(mktemp -d)
trap 'rm -rf "$STORE"' EXIT
./_build/default/bin/tbct_cli.exe campaign --seeds 20 --store "$STORE" \
    --hits-out "$STORE/hits-full.txt" > /dev/null
J="$STORE/journal.log"
SZ=$(wc -c < "$J")
dd if="$J" of="$J.cut" bs=1 count=$((SZ * 3 / 5)) 2> /dev/null
mv "$J.cut" "$J"
./_build/default/bin/tbct_cli.exe campaign --seeds 20 --store "$STORE" \
    --resume --hits-out "$STORE/hits-resumed.txt" > /dev/null
if ! cmp -s "$STORE/hits-full.txt" "$STORE/hits-resumed.txt"; then
  echo "CI: resumed campaign hit list differs from the uninterrupted one" >&2
  exit 1
fi

# store repair: overwrite every CAS object with garbage.  The next campaign
# drops each object it cannot decode and writes the recomputed one back, so
# the campaign after it is served from disk alone; both keep the hit list
find "$STORE/cas" -type f | while read -r f; do printf garbage > "$f"; done
for pass in 1 2; do
  ./_build/default/bin/tbct_cli.exe campaign --seeds 20 --store "$STORE" \
      --stats --hits-out "$STORE/hits-repair-$pass.txt" \
      > "$STORE/stats-repair-$pass.txt"
  if ! cmp -s "$STORE/hits-full.txt" "$STORE/hits-repair-$pass.txt"; then
    echo "CI: campaign $pass on a corrupted store changed the hit list" >&2
    exit 1
  fi
done
if ! grep -q "^engine: 0 runs executed" "$STORE/stats-repair-2.txt"; then
  echo "CI: the corrupted store was not repaired: the second campaign" \
       "still executed runs" >&2
  exit 1
fi

# store gc: the size bound must hold afterwards (the command self-checks
# and exits non-zero if the cache still exceeds the bound).  A writer killed
# between its temp write and the rename leaves a <key>.tmp.<pid>.<n> file;
# plant one so gc must skip it rather than index it as an object
OBJ=$(find "$STORE/cas/objects" -type f | head -n 1)
head -c 131072 /dev/zero > "$OBJ.tmp.4242.0"
./_build/default/bin/tbct_cli.exe store gc "$STORE" --max-bytes 65536 > /dev/null
if [ ! -f "$OBJ.tmp.4242.0" ]; then
  echo "CI: store gc deleted a temp file a live writer may still rename" >&2
  exit 1
fi
./_build/default/bin/tbct_cli.exe store stats "$STORE" > /dev/null

# registry listing gate: one entry per transformation type.  Completeness
# itself is a compile-time property (Registry.entry is one exhaustive match
# over Transformation.kind); this checks the CLI renders all of them
N_TYPES=$(./_build/default/bin/tbct_cli.exe transformations --json | wc -l)
if [ "$N_TYPES" -ne 31 ]; then
  echo "CI: transformations --json lists $N_TYPES entries, expected 31" >&2
  exit 1
fi
if ! ./_build/default/bin/tbct_cli.exe transformations --json \
    | grep -q '"type_id":"ReplaceBranchWithKill"'; then
  echo "CI: transformations --json is missing ReplaceBranchWithKill" >&2
  exit 1
fi

# zero-drift gate: explicit uniform weights must reproduce the default
# campaign bit for bit, and a non-uniform weighting must actually change it
WDIR=$(mktemp -d)
./_build/default/bin/tbct_cli.exe campaign --seeds 20 \
    --hits-out "$WDIR/hits-default.txt" > /dev/null
./_build/default/bin/tbct_cli.exe campaign --seeds 20 \
    --weights supporting=1,control_flow=1,data=1,function=1,obfuscation=1 \
    --hits-out "$WDIR/hits-uniform.txt" > /dev/null
if ! cmp -s "$WDIR/hits-default.txt" "$WDIR/hits-uniform.txt"; then
  echo "CI: explicit uniform weights drifted from the default campaign" >&2
  rm -rf "$WDIR"
  exit 1
fi
./_build/default/bin/tbct_cli.exe campaign --seeds 20 --weights control_flow=6 \
    --hits-out "$WDIR/hits-weighted.txt" > /dev/null
if cmp -s "$WDIR/hits-default.txt" "$WDIR/hits-weighted.txt"; then
  echo "CI: control_flow=6 produced the same campaign as uniform weights —" \
       "weighted sampling is not taking effect" >&2
  rm -rf "$WDIR"
  exit 1
fi
rm -rf "$WDIR"

# pool determinism gate: a parallel campaign's hit list and a parallel
# dedup run's reduced tests must be byte-identical to the sequential ones
# at any worker count (the Pool's task-id-ordered merge contract)
./_build/default/bin/tbct_cli.exe campaign --seeds 40 --domains 1 \
    --stats --hits-out "$STORE/hits-seq.txt" > "$STORE/stats-seq.txt"
./_build/default/bin/tbct_cli.exe campaign --seeds 40 --domains 4 \
    --hits-out "$STORE/hits-par.txt" > /dev/null
if ! cmp -s "$STORE/hits-seq.txt" "$STORE/hits-par.txt"; then
  echo "CI: 4-domain campaign hit list differs from the sequential one" >&2
  exit 1
fi
./_build/default/bin/tbct_cli.exe dedup --seeds 40 --domains 1 \
    --tests-out "$STORE/tests-seq.txt" > /dev/null
./_build/default/bin/tbct_cli.exe dedup --seeds 40 --domains 4 \
    --tests-out "$STORE/tests-par.txt" > /dev/null
if ! cmp -s "$STORE/tests-seq.txt" "$STORE/tests-par.txt"; then
  echo "CI: 4-domain parallel reduction differs from the sequential one" >&2
  exit 1
fi

# hunt gate: each variant runs on its own input (AddUniform extends it
# with the module), so a hunt must never report a binding that the
# variant's input provides
if ./_build/default/bin/tbct_cli.exe hunt --corpus gradient \
     --target SwiftShader --seeds 60 | grep "missing binding"; then
  echo "CI: tbct hunt ran a variant on the reference input" >&2
  exit 1
fi

# hunt shrink gate: hunt reduces as every campaign reduction does, so the
# donated body of a surviving AddFunction is shrunk too.  Seed 34 of rings
# keeps AddFunction + AddParameter + FunctionCall; with the body left
# whole its delta listing has 24 lines
hunt_delta=$(./_build/default/bin/tbct_cli.exe hunt --corpus rings \
               --target SwiftShader \
             | sed -n '/^delta between/,/^engine:/p' | grep -c '^[+-] ')
if [ "$hunt_delta" -ge 24 ]; then
  echo "CI: tbct hunt left the AddFunction body unshrunk ($hunt_delta delta lines)" >&2
  exit 1
fi

# compiled-kernel equivalence gate: a campaign and a dedup run over all
# nine targets must be byte-identical between the flat compiled kernel
# (the default) and the reference interpreter (--reference-interp), at
# both --domains 1 and --domains 4.  The hits/tests files above came from
# default (compiled) runs, so diffing against reference runs proves the
# kernels agree on every fragment the campaign executes.  The compiled
# runs take renders from the engine's render memo, shared by targets that
# produce one post-miscompile module; the reference engine renders every
# run afresh.  The sequential compiled campaign must report render-memo
# hits > 0, or nothing was shared and the comparison proves nothing
# about the memo.
render_hits=$(awk '$1 == "compile:" && $6 == "render-memo" { print $5 }' \
                "$STORE/stats-seq.txt")
if [ "${render_hits:-0}" -le 0 ]; then
  echo "CI: compiled campaign reports no render-memo hits" >&2
  exit 1
fi
./_build/default/bin/tbct_cli.exe campaign --seeds 40 --domains 1 \
    --reference-interp --hits-out "$STORE/hits-refint-seq.txt" > /dev/null
if ! cmp -s "$STORE/hits-seq.txt" "$STORE/hits-refint-seq.txt"; then
  echo "CI: compiled-kernel campaign differs from the reference" \
       "interpreter (sequential)" >&2
  exit 1
fi
./_build/default/bin/tbct_cli.exe campaign --seeds 40 --domains 4 \
    --reference-interp --hits-out "$STORE/hits-refint-par.txt" > /dev/null
if ! cmp -s "$STORE/hits-par.txt" "$STORE/hits-refint-par.txt"; then
  echo "CI: compiled-kernel campaign differs from the reference" \
       "interpreter (4 domains)" >&2
  exit 1
fi
./_build/default/bin/tbct_cli.exe dedup --seeds 40 --domains 1 \
    --reference-interp --tests-out "$STORE/tests-refint-seq.txt" > /dev/null
if ! cmp -s "$STORE/tests-seq.txt" "$STORE/tests-refint-seq.txt"; then
  echo "CI: compiled-kernel reduction differs from the reference" \
       "interpreter (sequential)" >&2
  exit 1
fi
./_build/default/bin/tbct_cli.exe dedup --seeds 40 --domains 4 \
    --reference-interp --tests-out "$STORE/tests-refint-par.txt" > /dev/null
if ! cmp -s "$STORE/tests-par.txt" "$STORE/tests-refint-par.txt"; then
  echo "CI: compiled-kernel reduction differs from the reference" \
       "interpreter (4 domains)" >&2
  exit 1
fi

# TV campaign gate: a --tv campaign (translation validation after every
# pass, digests reused by identity across pass steps) must give the same
# hit list at --domains 1, at --domains 4 and under the reference
# interpreter.  The compiled-mode campaigns take every target optimizer
# outcome and TV blame from the engine's pipeline memo, shared across
# targets with the same configuration; the reference-interpreter engine
# has no pipeline memo and runs each target's pipeline afresh, so the
# byte-equality checks also prove memo == fresh pipeline runs.  The
# sequential campaign must report pipeline-hits > 0, or nothing was
# shared and the comparison proves nothing.
./_build/default/bin/tbct_cli.exe campaign --tv --seeds 20 --domains 1 \
    --stats --hits-out "$STORE/hits-tv-seq.txt" > "$STORE/stats-tv-seq.txt"
pipeline_hits=$(awk '$1 == "pipeline-hits" { print $2 }' "$STORE/stats-tv-seq.txt")
if [ "${pipeline_hits:-0}" -le 0 ]; then
  echo "CI: --tv campaign reports no pipeline-memo hits" >&2
  exit 1
fi
./_build/default/bin/tbct_cli.exe campaign --tv --seeds 20 --domains 4 \
    --hits-out "$STORE/hits-tv-par.txt" > /dev/null
./_build/default/bin/tbct_cli.exe campaign --tv --seeds 20 --domains 1 \
    --reference-interp --hits-out "$STORE/hits-tv-refint.txt" > /dev/null
if ! cmp -s "$STORE/hits-tv-seq.txt" "$STORE/hits-tv-par.txt"; then
  echo "CI: 4-domain --tv campaign hit list differs from the sequential one" >&2
  exit 1
fi
if ! cmp -s "$STORE/hits-tv-seq.txt" "$STORE/hits-tv-refint.txt"; then
  echo "CI: --tv campaign differs from the reference interpreter" >&2
  exit 1
fi

# serve smoke: a daemon on a temp socket runs two concurrent campaigns
# over one shared engine.  Gates: both jobs complete under attach, the
# jobs share the engine (cross-job memo hits > 0 in status --json), drain
# exits the daemon cleanly, an over-long request line is refused, and a
# daemon killed -9 mid-campaign resumes its job on restart to a hit list
# byte-identical to an uninterrupted batch run.  Daemon PIDs come from $! — pgrep would match this script's
# own command line.
SDIR=$(mktemp -d)
SOCK="$SDIR/s"  # keep the socket path well under the sun_path limit
TBCT=./_build/default/bin/tbct_cli.exe
wait_sock() {
  n=0
  while [ ! -S "$1" ]; do
    n=$((n + 1))
    if [ "$n" -gt 100 ]; then
      echo "CI: daemon socket $1 never appeared" >&2
      exit 1
    fi
    sleep 0.1
  done
}
"$TBCT" serve --store "$SDIR/store" --socket "$SOCK" --domains 2 \
    > "$SDIR/serve1.log" 2>&1 &
DPID=$!
wait_sock "$SOCK"
J1=$("$TBCT" submit --socket "$SOCK" --seeds 20)
J2=$("$TBCT" submit --socket "$SOCK" --seeds 20)
"$TBCT" attach --socket "$SOCK" "$J1" > /dev/null
"$TBCT" attach --socket "$SOCK" "$J2" > /dev/null
if ! "$TBCT" status --socket "$SOCK" --json \
    | grep -q '"cross_job_memo_hits":[1-9]'; then
  echo "CI: two concurrent jobs produced no cross-job memo hits —" \
       "the daemon is not sharing one engine" >&2
  kill "$DPID" 2> /dev/null || true
  exit 1
fi
# a request line past the 1 MiB cap is answered with an error and its
# client dropped; the daemon keeps serving everyone else
if ! python3 - "$SOCK" <<'PY'
import socket, sys
s = socket.socket(socket.AF_UNIX)
s.settimeout(30)
s.connect(sys.argv[1])
s.sendall(b"x" * ((1 << 20) + 1))
reply = b""
while True:
    chunk = s.recv(4096)
    if not chunk:
        break
    reply += chunk
sys.exit(0 if reply.startswith(b'{"ok":false') else 1)
PY
then
  echo "CI: an over-long request line was not refused with an error" >&2
  kill "$DPID" 2> /dev/null || true
  exit 1
fi
"$TBCT" hits --socket "$SOCK" "$J1" -o "$SDIR/hits-serve.txt"
"$TBCT" drain --socket "$SOCK" > /dev/null
if ! wait "$DPID"; then
  echo "CI: drained daemon exited non-zero" >&2
  exit 1
fi
"$TBCT" campaign --seeds 20 --hits-out "$SDIR/hits-batch.txt" > /dev/null
if ! cmp -s "$SDIR/hits-serve.txt" "$SDIR/hits-batch.txt"; then
  echo "CI: daemon job hit list differs from the batch campaign" >&2
  exit 1
fi

# kill -9 mid-campaign, restart on the same store, resume to completion
KSOCK="$SDIR/k"
"$TBCT" serve --store "$SDIR/kstore" --socket "$KSOCK" --domains 2 \
    > "$SDIR/serve2.log" 2>&1 &
KPID=$!
wait_sock "$KSOCK"
JK=$("$TBCT" submit --socket "$KSOCK" --seeds 60)
sleep 0.4
kill -9 "$KPID"
wait "$KPID" 2> /dev/null || true
rm -f "$KSOCK"  # kill -9 leaves the stale socket file; clear it so
                # wait_sock sees the restarted daemon's bind, not this one
"$TBCT" serve --store "$SDIR/kstore" --socket "$KSOCK" --domains 2 \
    > "$SDIR/serve3.log" 2>&1 &
KPID=$!
wait_sock "$KSOCK"
"$TBCT" attach --socket "$KSOCK" "$JK" > /dev/null
"$TBCT" hits --socket "$KSOCK" "$JK" -o "$SDIR/hits-resumed.txt"
"$TBCT" shutdown --socket "$KSOCK" > /dev/null
wait "$KPID" || true
"$TBCT" campaign --seeds 60 --hits-out "$SDIR/hits-fresh.txt" > /dev/null
if ! cmp -s "$SDIR/hits-resumed.txt" "$SDIR/hits-fresh.txt"; then
  echo "CI: resumed daemon job hit list differs from an uninterrupted" \
       "batch campaign" >&2
  exit 1
fi
rm -rf "$SDIR"

if $IN_GIT && [ "$(git status --porcelain)" != "$GIT_STATUS_BEFORE" ]; then
  echo "CI: this run modified the work tree:" >&2
  git status --porcelain >&2
  exit 1
fi

echo "CI: build (architecture alerts) + tests + lint + tv + loop-coverage + memory-coverage + contract-smoke + store-smoke + store-repair + registry-gates + pool-determinism + hunt-input + hunt-shrink + compiled-kernel-equivalence + tv-campaign + serve-smoke + store-io-grep + clean-tree checks passed"
