"""Control-theoretic analysis of linear control systems on the planar motion group.

The package models one-input linear control systems on S^1 x R^2, reduces
them to a planar affine system, evaluates flows in closed form, analyzes the
equilibria geometry and invariant regions, estimates control sets by grid
reachability, and constructs periodic plans in the rotation-only case.
Names are imported from the submodules, e.g. ``from se2control.flow import
flow_se2``.
"""
