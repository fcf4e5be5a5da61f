#!/bin/sh
# lint-box: float-boxing tripwire for the per-event and per-packet core.
#
# The scheduling core (Sim.Time / Event_queue / Timer_wheel / Engine)
# keeps time as integer nanoseconds, and the packet path (Net.Link /
# Network / Packet_pool, Multipath.Epsilon_routing) draws and converts
# floats only inside inlined helpers, so none of their hot functions
# should box a float. This script compiles each of those modules again
# with `-dcmm` and scans the Cmm dump for float boxes — `alloc` blocks
# with header 1277 (one-field block, Double_tag, on 64-bit) — outside
# the designated float boundary. A new box in a hot function fails the
# lint.
#
# How it compiles: dune offers no per-module -dcmm hook, so for each
# module the script asks `dune rules` for the exact ocamlopt command
# dune runs (same flags, same include paths, the same _build .cmx files
# of the modules it depends on, so cross-module inlining is what the
# build does), appends -dcmm and sends the outputs to a temp dir; _build
# itself is left untouched. It fails if that command carries -opaque:
# then no module's [@inline] reaches another and the scan would not
# describe the shipped code (DESIGN.md §15, "Build profile").
#
# Known-benign float boxes:
#   * the float branch of a polymorphic array read: reading an ['a
#     array] compiles to a tag dispatch (Double_array_tag, 254) whose
#     float branch boxes. None of these arrays (event payloads, node
#     tables, route tables) ever holds floats, so the branch is dead.
#     Recognised structurally: the box follows the tag test.
#   * `Time.to_sec` bodies (time.ml, possibly inlined) in the functions
#     listed in BOUNDARY_FNS below: the documented seconds-facing API.
#
# Exit status: 0 clean, 1 float box found, 2 build or toolchain failure.

set -eu

repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

# <source dir> <library name> <module>, one per line.
MODULES='lib/sim sim time
lib/sim sim event_queue
lib/sim sim timer_wheel
lib/sim sim engine
lib/net net link
lib/net net network
lib/net net packet_pool
lib/multipath multipath epsilon_routing'

# Functions allowed to contain a (possibly inlined) Time.to_sec /
# of_sec body: the float-seconds boundary. Names are matched on the
# Cmm symbol with the module prefix and the compiler's _NNN stamp
# stripped.
#   to_sec / of_sec / of_sec_delay — the boundary itself (time.ml);
#   now — engine's documented float-seconds clock read
#     (trace/probe/stats callers);
#   schedule_event_at_ns — to_sec only on the cold invalid_arg path
#     (formatting the "scheduled in the past" message);
#   busy_time — link's seconds-facing utilisation accessor.
BOUNDARY_FNS='to_sec|of_sec|of_sec_delay|now|schedule_event_at_ns|busy_time'

cap() { printf '%s' "$1" | awk '{ print toupper(substr($0, 1, 1)) substr($0, 2) }'; }

targets=$(printf '%s\n' "$MODULES" | while read -r dir lib m; do
  printf '%s/.%s.objs/native/%s__%s.cmx\n' "$dir" "$lib" "$lib" "$(cap "$m")"
done)

# shellcheck disable=SC2086
if ! dune build --root "$repo" $targets 2> "$tmp/build.txt"; then
  echo "lint-box: dune build failed (not a lint failure)" >&2
  sed -n '1,20p' "$tmp/build.txt" >&2
  exit 2
fi

: > "$tmp/cmm.txt"
for target in $targets; do
  # The ocamlopt invocation of the rule, one argument per line; the
  # rule runs it from _build/default.
  args=$(cd "$repo" && dune rules --root . "_build/default/$target" 2>/dev/null \
    | awk '/^ *\(run$/ { on = 1; next }
           on { gsub(/^ +/, ""); n = sub(/\)+$/, ""); print; if (n) exit }')
  if [ -z "$args" ]; then
    echo "lint-box: no ocamlopt rule for $target (toolchain problem)" >&2
    exit 2
  fi
  if printf '%s\n' "$args" | grep -qx -- '-opaque'; then
    echo "lint-box: dune compiles $target with -opaque, so cross-module" \
      "inlining is off (dev profile?); build with dune-workspace's" \
      "release profile" >&2
    exit 2
  fi
  # Redirect -o into the temp dir (the .cmx basename must stay the
  # same: ocamlopt checks it against the compiled interface).
  set --
  out=0
  for a in $args; do
    if [ $out -eq 1 ]; then a="$tmp/$(basename "$a")"; out=0; fi
    [ "$a" = "-o" ] && out=1
    set -- "$@" "$a"
  done
  if ! (cd "$repo/_build/default" && "$@" -dcmm) >> "$tmp/cmm.txt" 2>&1; then
    echo "lint-box: ocamlopt failed on $target (toolchain problem, not a lint failure)" >&2
    tail -n 20 "$tmp/cmm.txt" >&2
    exit 2
  fi
done

# Pass 1 (awk): walk the Cmm dump, remember the enclosing function for
# every `alloc{loc} 1277` (the printer may wrap the header onto the
# next line), skip the float branch of a polymorphic array read (a box
# within three lines of a `... 255) 254)` tag test), and emit one
# record per remaining box:
#   <function-name-sans-stamp> <outer file> <line> <c1> <c2> <inner file>
# The debug location of a box in inlined code is a chain
# `call-site;...;origin`: the outer (call-site) location names the line
# to show, the innermost file says where the boxing code came from.
boxes=$(awk '
  function report(loc, at,    k, chain, inner, n, a) {
    if (tagtest && at - tagtest <= 3) return
    k = split(loc, chain, ";")
    inner = chain[k]; sub(/:.*/, "", inner)
    # chain[1] = file.ml:LINE,C1-C2
    n = split(chain[1], a, /[:,\-]/)
    if (n == 4) print fn, a[1], a[2], a[3], a[4], inner
    else print fn, chain[1], 0, 0, 0, inner
  }
  /^\(function/ {
    fn = $2
    sub(/\{[^}]*\}/, "", fn)       # drop the {file:loc} annotation
    sub(/_[0-9]+$/, "", fn)        # drop the _NNN stamp
    sub(/^caml[A-Za-z_]+\./, "", fn)
  }
  / 255\) 254\)/ { tagtest = NR }
  pending != "" && /^ *1277( |$)/ { report(pending, NR - 1) }
  { pending = "" }
  match($0, /alloc\{[^}]*\} 1277( |$)/) {
    loc = substr($0, RSTART + 6, RLENGTH - 6)
    sub(/\} 1277 ?$/, "", loc)
    report(loc, NR)
    next
  }
  match($0, /alloc\{[^}]*\}$/) {
    pending = substr($0, RSTART + 6, RLENGTH - 7)
  }
' "$tmp/cmm.txt" | sort -u)

status=0
while IFS=' ' read -r fn file line c1 c2 inner; do
  [ -n "$fn" ] || continue
  if [ "$inner" = "lib/sim/time.ml" ] \
     && printf '%s' "$fn" | grep -Eqx "$BOUNDARY_FNS"; then
    # Boundary conversion inlined into an allowed wrapper.
    continue
  fi
  # Pull the source text the alloc's debug location points at.
  snippet=$(awk -v l="$line" -v c1="$c1" -v c2="$c2" \
    'NR == l { print substr($0, c1 + 1, c2 - c1) }' "$repo/$file" 2>/dev/null || true)
  echo "lint-box: float box in $fn ($file:$line, cols $c1-$c2): $snippet"
  status=1
done <<EOF
$boxes
EOF

if [ $status -eq 0 ]; then
  echo "lint-box: clean ($(grep -c '^(function' "$tmp/cmm.txt") functions in" \
    "$(printf '%s\n' "$MODULES" | wc -l) modules scanned, no float boxes" \
    "outside the boundary)"
else
  echo "lint-box: FAIL — a hot path boxes a float (see DESIGN.md §15)" >&2
fi
exit $status
