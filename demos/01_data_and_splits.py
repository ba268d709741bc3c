"""Loading binary data, checking it, and carving reproducible splits.

A dataset lives in a plain coordinate text file: a header line "M N"
followed by one "row col" line per cell that holds a 1.  Everything not
listed is an observed 0.  Run from the repository root after installing:

    python demos/01_data_and_splits.py
"""

import tempfile
from pathlib import Path

from nbmf import (
    SplitSpec,
    density,
    load_coordinate_file,
    load_mask,
    save_coordinate_file,
    save_mask,
    split_observations,
    random_binary_matrix,
)

workdir = Path(tempfile.mkdtemp(prefix="nbmf_demo_"))

# --- 1. write and read the coordinate format -------------------------------
path = workdir / "toy.txt"
path.write_text("# a 4x6 toy dataset\n4 6\n0 0\n0 3\n1 1\n2 4\n3 2\n3 5\n")
Y = load_coordinate_file(path)
print(f"loaded {Y.n_rows}x{Y.n_cols} matrix with {Y.linear.size} ones")
print(f"density: {density(Y):.3f}")
print(Y.to_dense())

# --- 2. split the cells 70/15/15 with a seed --------------------------------
spec = SplitSpec(train_frac=0.7, val_frac=0.15, test_frac=0.15, seed=42)
train, val, test = split_observations(Y, spec)
print(f"\nsplit sizes: train={train.n_cells} val={val.n_cells} test={test.n_cells}")
print("disjoint:", train.shared_cells(val) == train.shared_cells(test) == 0)

# the split depends only on the matrix shape and the spec, so the same seed
# always reproduces it
again, _, _ = split_observations(Y, spec)
print("same seed, same split:", again == train)
other, _, _ = split_observations(Y, SplitSpec(seed=43))
print("different seed, different split:", other != train)

# --- 3. masks round-trip through the same file format -----------------------
mask_path = workdir / "train_mask.txt"
save_mask(train, mask_path)
print("mask round trip:", load_mask(mask_path) == train)

# --- 4. larger synthetic data for later demos -------------------------------
big = random_binary_matrix(50, 85, density=0.3, seed=0)
big_path = workdir / "big.txt"
save_coordinate_file(big, big_path)
tr, va, te = split_observations(big, SplitSpec(seed=0))
print(f"\n50x85 example: train={tr.n_cells} val={va.n_cells} test={te.n_cells}")
print(f"files written under {workdir}")
