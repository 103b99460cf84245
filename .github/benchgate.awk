# benchgate.awk reads benchstat's comparison of a base and a change and
# exits 1 when a benchmark's sec/op rose significantly, by more than 10%.
#
# benchstat prints one table per unit. A table's header lines are drawn
# with "│" separators, and the last of them names the unit (sec/op, B/op,
# allocs/op, ...). Its rows carry a signed percentage where the change is
# significant and "~" where it is not. Only rows under a sec/op header are
# gated; the geomean row, which has no significance test, is not.
#
# usage: awk -f .github/benchgate.awk benchstat.txt

/│/ { secop = /sec\/op/; next }
/^[ \t]*$/ { secop = 0; next }
secop && $1 != "geomean" {
	for (i = 2; i <= NF; i++)
		if ($i ~ /^[+][0-9.]+%$/ && substr($i, 2, length($i) - 2) + 0 > 10) {
			print "sec/op regression above 10%: " $0
			bad = 1
		}
}
END { exit bad }
