"""Integer row-reduction kernel (fraction-free Bareiss, `pure`)."""
