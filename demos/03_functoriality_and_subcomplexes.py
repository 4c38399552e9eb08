"""
The construction is a functor, and it respects subcomplexes
===========================================================

A map of targets g: B -> B' induces a map of towers, stage by stage.
Identities induce identities and composites induce composites, so the
whole factorization is functorial.  When g is a subcomplex inclusion
the induced map is a subcomplex inclusion at every stage, and building
over an intersection of subcomplexes is the same as intersecting the
towers.
"""

from cwtower import (
    SimplexRef,
    SimplicialSet,
    boundary_simplex,
    check_intersection,
    check_subcomplex,
    cw_tower,
    empty_map,
    identity_map,
    identity_tower_map,
    induced_tower_map,
    subcomplex,
)

B = boundary_simplex(2)
T = cw_tower(B, 2)
e = empty_map(SimplicialSet.empty())

# the identity of B induces the identity of the tower
tm = induced_tower_map(e, identity_map(B), T, T)
same = tm.stage_maps == identity_tower_map(T).stage_maps
print("identity target map induces identity tower map:", same)

# one edge of the triangle boundary, as a subcomplex
edge_gens = {SimplexRef(0, 0), SimplexRef(0, 1), SimplexRef(1, 0)}
edge, incl = subcomplex(B, edge_gens)
T_edge = cw_tower(edge, 2)
tm = induced_tower_map(e, incl, T_edge, T)
ok, witness = check_subcomplex(tm)
print("edge tower includes into circle tower at every stage:", ok)

# two adjacent edges meet in one vertex; the towers intersect the same way
other = {SimplexRef(0, 0), SimplexRef(0, 2), SimplexRef(1, 1)}
ok, reports = check_intersection(B, [edge_gens, other], 2)
print("intersection commutes with the tower stages:", ok)
for rep in reports:
    print(f"  stage {rep['stage']}: intersection of towers"
          f" = {rep['intersection_size']} generators,"
          f" tower of intersection = {rep['tower_of_intersection_size']}")
