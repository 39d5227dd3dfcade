#!/bin/sh
# Fail if any ISA variant of the mean-power scale kernel contains a fused
# multiply-add. The kernel returns the scalar power model's exact bits
# only when nothing is contracted (see src/power/scale_kernel.hh), so
# this guards the bit-identity of the scale factor across ISAs.
#
# usage: tools/check_no_fma.sh <build-dir>/src/power/libedgetherm_power.a
set -eu

lib=${1:?usage: tools/check_no_fma.sh path/to/libedgetherm_power.a}

listing=$(objdump -d --no-show-raw-insn --demangle "$lib" | awk '
    /^[0-9a-f]+ <.*meanPowerLanes[A-Za-z0-9]*\(/ { keep = 1; print; next }
    /^[0-9a-f]+ </ { keep = 0 }
    keep')

variants=$(printf '%s\n' "$listing" | grep -c '^[0-9a-f]* <' || true)
if [ "$variants" -eq 0 ]; then
    echo "check_no_fma: no meanPowerLanes* kernel found in $lib" >&2
    exit 1
fi

fused=$(printf '%s\n' "$listing" | grep -E 'vfn?m(add|sub)' || true)
if [ -n "$fused" ]; then
    echo "check_no_fma: FMA instructions in the scale kernel:" >&2
    printf '%s\n' "$fused" >&2
    exit 1
fi
echo "check_no_fma: $variants scale-kernel variant(s), no FMA"
