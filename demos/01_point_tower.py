"""
Building the tower over a single point
======================================

The smallest possible target: one vertex, nothing else.  Starting from
the empty complex we adjoin one vertex at stage 0, then at each stage n
attach one n-cell for every commuting attaching square.  Even over a
point the stages grow quickly, because degenerate simplices give the
boundary sphere many maps into the current stage.
"""

from cwtower import connectivity_report, cw_tower, homology, standard_simplex

B = standard_simplex(0)
tower = cw_tower(B, 2)

print("target:", B.counts)
for n in range(3):
    stage = tower.stages[n]
    print(f"stage {n}: generator counts {stage.counts},"
          f" {len(tower.squares[n])} squares attached")

# Stage 1 is a vertex with a loop, a circle.  Stage 2 kills that loop and
# overshoots: eight 2-cells go in, one of which fills the loop, and the
# leftovers pile up as free H_2.
print()
print("H_1 of stage 1:", homology(tower.stages[1], 1))
print("H_1 of stage 2:", homology(tower.stages[2], 1))
print("H_2 of stage 2:", homology(tower.stages[2], 2))

# Every stage projection is as connected as the stage number promises.
print()
for n in range(3):
    rep = connectivity_report(tower, n, simply_connected_B=True)
    print(f"stage {n} projection checks: {rep.checks}")
