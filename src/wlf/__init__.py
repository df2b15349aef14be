"""wlf: weak-label factory for LiDAR + camera instance segmentation.

Generates, refines, and evaluates pseudo instance/semantic labels for point
clouds (and fused pseudo masks for images) starting from nothing but 2D box
annotations, with a synthetic scene oracle for verification.
"""

__version__ = "0.1.0"

# The logging set-up of a `wlf` command, which ``cli.main`` puts here; the
# first warning runs it, so a run that warns of nothing never imports logging.
log_setup = None


def warn(logger: str, msg: str, *args: object) -> None:
    """``logging.getLogger(logger).warning(msg, *args)``, importing logging
    and running ``log_setup`` only at the first warning."""
    global log_setup
    import logging  # noqa: PLC0415

    # Set up before clearing: a warning from another pool thread in between
    # runs the set-up again (basicConfig then waits on logging's lock and
    # does nothing) rather than logging before the handler is there.
    setup = log_setup
    if setup is not None:
        setup()
        log_setup = None
    logging.getLogger(logger).warning(msg, *args)
