"""Label-map conventions shared across the package.

A label map is an integer (H, W) array of class indices; VOID marks
unlabeled pixels, which are excluded from every loss and metric. 255 is
also the on-disk PGM encoding of VOID.
"""

import numpy as np

VOID = 255


def is_fully_labeled(labels: np.ndarray) -> bool:
    return not np.any(labels == VOID)
