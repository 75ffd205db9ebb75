"""The writer of ``groups.read_group_file``'s text format, for the tests
that build group files."""


def write_group_file(group, path) -> None:
    """group as an order line, its table, and its A and B lines."""
    with open(path, "w") as fh:
        fh.write(f"order {group.order}\n")
        fh.write("table\n")
        for row in group.table:
            fh.write(" ".join(map(str, row)) + "\n")
        fh.write("A " + " ".join(map(str, group.A)) + "\n")
        fh.write("B " + " ".join(map(str, group.B)) + "\n")
