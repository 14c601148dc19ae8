"""
Triad census walkthrough
========================

Builds the classic 4-node example network and walks through its triads:
every 3-node subset is classified by how many edges it contains, the counts
form the census, and dividing by the number of triples gives the relative
census that makes different team sizes comparable.
"""

from itertools import combinations

from teamnets import CommunicationNetwork
from teamnets import census_closed_form, relative_census, triad_census

# Four people; D talks with everyone except B talks only with D.
net = CommunicationNetwork(
    roster=("A", "B", "C", "D"),
    edges=frozenset({("A", "C"), ("A", "D"), ("C", "D"), ("B", "D")}),
)

print("nodes:", net.roster)
print("edges:", sorted(net.edges))
print()

# Walk the four triads by hand first.
for trio in combinations(net.roster, 3):
    k = sum(1 for a, b in combinations(trio, 2) if net.has_edge(a, b))
    print(f"triad {''.join(trio)}: {k} edge(s)")

census = triad_census(net)
print()
print("census (c0, c1, c2, c3):", census)
print("closed form agrees:     ", census_closed_form(net))
print("relative census:        ", relative_census(census))

# The same counts on the empty and complete 4-node graphs bracket the range.
empty = CommunicationNetwork(roster=net.roster, edges=frozenset())
full = CommunicationNetwork(
    roster=net.roster,
    edges=frozenset(tuple(sorted(e)) for e in combinations(net.roster, 2)),
)
print()
print("empty graph census:   ", triad_census(empty))
print("complete graph census:", triad_census(full))
