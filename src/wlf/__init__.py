"""wlf: weak-label factory for LiDAR + camera instance segmentation.

Generates, refines, and evaluates pseudo instance/semantic labels for point
clouds (and fused pseudo masks for images) starting from nothing but 2D box
annotations, with a synthetic scene oracle for verification.
"""

__version__ = "0.1.0"
