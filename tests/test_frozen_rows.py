"""The square search's output, frozen: rows, order and budget errors.

Each stage's ``SquareRow`` is pinned by the sha256 of its facets and
tops (``row_sha256``), so any change to the search must return the same
squares in the same order.  A tower at cap k is the first k stages of
the tower at cap 4, so the cap-4 builds cover caps 1-4.  The budget
records (``data/budget_records.json``) hold the ``BudgetExceeded`` text
and ``used`` count at limits 0, 1, each join level's end and its
neighbours, points inside each level, and the total minus one.
"""

import json
import os

import pytest

import cwtower.homsearch as homsearch
from cwtower import boundary_simplex, cw_tower, parse_sset, standard_simplex
from cwtower.homsearch import Budget, BudgetExceeded, SquareTable, enumerate_squares
from cwtower.textio import read_text

from util import CONSTRUCTIONS, constructed, row_sha256

DATA = os.path.join(os.path.dirname(os.path.abspath(__file__)), "data")

CORPUS = {"point": standard_simplex(0), "interval": standard_simplex(1),
          "circle": boundary_simplex(2), "disk": standard_simplex(2)}

# sha256 of stages 1-4 (stage-4 cells: point 57,629, interval 137,568,
# circle 239,817, disk 242,043)
ROWS_CAP4 = {
    "point": ("a17138988e1387532b5cb0bd7a23f18a11d537123873e67154dada3c6359e53e",
              "9b2a8b7e853ff8f37aed8b8900b22d7dd4e85f334638bf7d83a3d8cb42b4670d",
              "f503d09d11b7e09c5a9bbbeeba0ab41de0b0907583efedaa4e0e84faf1a1a420",
              "d77de521ce8e79f62eb0bf053559be40c26d8270124bd66ffde83e9868843bb7"),
    "interval": ("d5bc9c2119219deaeb32bd3e72ed921adea01caac41f744631b92f37e3eb8b02",
                 "332cab05931d0c739d06c89e4a2b2c81544321edf3a3e51c1e6564b88140962d",
                 "4f3b86a277612a0d8fa6cb3cb2b1498d45f117255a9b3909dd02f21259bfb652",
                 "3d577a28e71c235dce90b113a44795d8effcc035f30ee3dfe371e5b716e608b8"),
    "circle": ("9ade18fc81195916e3b95b0a0c1a1f91eb769664121f60622f92befbfacad270",
               "afce80cf8e77a45bb1fa1183e5c3f9eb6039850725d38e04b01691f5a53ced1c",
               "90038de7c2efbe5f4c297426651b2257e5e609f21dce24e63ebcd9a13936eaaf",
               "0a467d15f08d665eeb42da1d1be3cb9e8061b9703c4dcdcfa709b67d31796c3f"),
    "disk": ("9ade18fc81195916e3b95b0a0c1a1f91eb769664121f60622f92befbfacad270",
             "7e31889d181b1f6c35cda02a62580ad8de08531ecbf7a3604c719bbbb67a3539",
             "4896e5f77c6fcebed09c429bc29ae3d40e87f39394173b475673796f171f5bd7",
             "543c0144cfd417d7ae08c2f8f42f5e5286f36726666bd1aaff220810e616891f"),
}

# sha256 of stages 1-3 of the towers over the targets of test_targets.py
ROWS_TARGETS_CAP3 = {
    "sphere2": ("a17138988e1387532b5cb0bd7a23f18a11d537123873e67154dada3c6359e53e",
                "1951eaa6cc8cafec957b0955388c8ceb13b381389e771569c3dcd68f8c907887",
                "6a4fd0a74dd194efad598887cda71e1f2cc183352088feff061a3c20b18052f0"),
    "rp2": ("40c7b1f4e44ee40aaff3095b64a2bf3578736c71536b48c1d0b357c484fc50b4",
            "ef50e49367f63cb29ed5b92dff1945a046da84974f1282e895994e13752ad84e",
            "6e072891098a3dea146e0a07a9b9dd1b9f76080146e4ce1b591da438f98152d1"),
    "torus": ("ab5fa854a1c44c3d1f057c23033c5ad7f99616e5b88d30a7142e609fa0bfa776",
              "1d6cc1da71095c230b5738b2469f2cb5a314eabd3f8ba66f4e747c001bdd51c3",
              "6a25d03a76471898550acac31f973a8b37c85026b95807a4da2c675462780d1d"),
    "boundary3": ("1b0f13c4b9c2fe788c02f4edbd2cf67162d6700b227968c47dd12bfda365e4ea",
                  "a627c963a7bae4dde594905aea0f869a490ea2b99b0a7bbeec039d505b89f070",
                  "e5328ad887b509618b6b005f9948f10f2b7f27e3019c66b05accc125908904cc"),
}

with open(os.path.join(DATA, "budget_records.json"), encoding="utf-8") as fh:
    BUDGET_RECORDS = json.load(fh)


@pytest.mark.parametrize("construction", CONSTRUCTIONS)
@pytest.mark.parametrize("name", CORPUS)
def test_corpus_rows_at_cap_4(name, construction):
    T = constructed(cw_tower(CORPUS[name], 4, budget=10**9), construction)
    assert tuple(row_sha256(T.squares[n]) for n in range(1, 5)) == ROWS_CAP4[name]


@pytest.mark.parametrize("name", ROWS_TARGETS_CAP3)
def test_target_rows_at_cap_3(name):
    B = (boundary_simplex(3) if name == "boundary3"
         else parse_sset(read_text(os.path.join(DATA, name + ".sset"))))
    T = cw_tower(B, 3)
    assert tuple(row_sha256(T.squares[n]) for n in range(1, 4)) == ROWS_TARGETS_CAP3[name]


@pytest.mark.parametrize("name", CORPUS)
def test_budget_exceeded_records(name):
    record = BUDGET_RECORDS[name]
    for limit, used, message in record["exceeded"]:
        with pytest.raises(BudgetExceeded) as exc:
            cw_tower(CORPUS[name], 3, budget=limit)
        assert (str(exc.value), exc.value.used) == (message, used), limit
    T = cw_tower(CORPUS[name], 3, budget=record["total"])
    # one Budget shared by the stages ends stage n at its last level's end
    # (stage n has n + 1 levels)
    budget = Budget(record["total"])
    for n in (1, 2, 3):
        enumerate_squares(SquareTable(n, T.projections[n - 1]), budget)
        assert budget.used == record["level_ends"][n * (n + 3) // 2 - 1], n


@pytest.mark.parametrize("name", CORPUS)
def test_multi_column_keys_give_the_same_rows_and_budget_errors(name, monkeypatch):
    # a limit of 2 splits every key of a base above 1 into one run per column
    monkeypatch.setattr(homsearch, "KEY_LIMIT", 2)
    T = cw_tower(CORPUS[name], 3)
    assert tuple(row_sha256(T.squares[n]) for n in range(1, 4)) == ROWS_CAP4[name][:3]
    for limit, used, message in BUDGET_RECORDS[name]["exceeded"]:
        with pytest.raises(BudgetExceeded) as exc:
            cw_tower(CORPUS[name], 3, budget=limit)
        assert (str(exc.value), exc.value.used) == (message, used), limit
