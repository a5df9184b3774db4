/**
 * @file
 * Shared flag parsing for the bench binaries: micro_software and
 * cpu_measured expose the same `--json <file>` / `--json=<file>`
 * spelling, kept in one place so the syntax cannot drift between
 * them, and the binaries that take no flags reject every argument
 * the same way.
 */

#ifndef STRIX_BENCH_FLAGS_H
#define STRIX_BENCH_FLAGS_H

#include <cstdio>
#include <cstring>
#include <string>

namespace strix {

/**
 * For a binary that takes no arguments: if any was given, print
 * "usage: <name>" to stderr and return true (the caller exits 2, as
 * strixsim does on a bad flag), so a caller still passing a removed
 * flag gets an error instead of a silent run.
 */
inline bool
rejectArgs(int argc, const char *name)
{
    if (argc <= 1)
        return false;
    std::fprintf(stderr, "usage: %s\n", name);
    return true;
}

/**
 * If argv[i] is the --json flag (either spelling) with a usable path
 * value, capture the path into @p json_path, advance @p i past any
 * consumed value argument, and return true. A missing/empty path or a
 * value that is itself a flag ("--json --smoke") does NOT match, so
 * the caller reports it as an unrecognized argument instead of
 * silently writing to a file named like a flag.
 */
inline bool
matchJsonFlag(int argc, char **argv, int &i, std::string &json_path)
{
    if (!std::strcmp(argv[i], "--json") && i + 1 < argc &&
        argv[i + 1][0] != '\0' && argv[i + 1][0] != '-') {
        json_path = argv[++i];
        return true;
    }
    if (!std::strncmp(argv[i], "--json=", 7) && argv[i][7] != '\0') {
        json_path = argv[i] + 7;
        return true;
    }
    return false;
}

} // namespace strix

#endif // STRIX_BENCH_FLAGS_H
