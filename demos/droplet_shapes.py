"""Shape statistics for large finite clusters.

Every qualifying cluster is re-centered at its mass center and rescaled to
unit volume; averaging the occupancies gives an empirical candidate for
the typical droplet shape.  The symmetric-difference statistic then
measures how far the observed clusters sit from translates of any given
candidate shape.
"""
import numpy as np

from fkpoisson import Box
from fkpoisson.wulff import (empirical_shape, qualifying_clusters,
                             square_shape, symmetric_difference_stat)

rng = np.random.default_rng(2)
box = Box.cube(2, 40)
n = 4
states = np.array([(rng.random(box.n_bonds) < 0.7).astype(np.uint8)
                   for _ in range(900)])
sample, centers, sites, owner = qualifying_clusters(box, states, n)

mask = empirical_shape(sites, owner, centers, cells_per_unit=8, min_count=30)
print(f"empirical droplet shape from n>={n} clusters: "
      f"volume {mask.volume:.3f} on a 1/8 raster")
g = mask.grid.astype(int)
for row in g[::2]:
    print("   ", "".join(".#"[v] for v in row[::2]))

diag_rows = []
shape = square_shape(1.0, 16)
width = 2  # ceil(ln^2 n)
site_sample = sample[owner]
for i in range(200):
    if not (sample == i).any():
        continue
    diag = symmetric_difference_stat(np.unique(centers[sample == i], axis=0),
                                     sites[site_sample == i], shape, n,
                                     width, delta=1.0)
    diag_rows.append(diag.volume / diag.center_count)
print(f"\nunit-square candidate, fattening width {width}:")
print(f"mean symmetric-difference volume per center: "
      f"{np.mean(diag_rows):.3f} over {len(diag_rows)} samples")
print("(smaller is better; the droplet event fires when this exceeds delta)")
