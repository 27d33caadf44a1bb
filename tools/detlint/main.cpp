/**
 * @file
 * detlint CLI.
 *
 *     detlint [--config FILE] [--json] [--list-rules] PATH...
 *
 * Exit status: 0 clean, 1 findings, 2 usage/config/I-O error — the
 * same convention scripts/check_lint.sh and CI rely on. Standard output
 * that cannot be written is an I/O error.
 */
#include "detlint.hpp"

#include <iostream>
#include <string>
#include <vector>

namespace {

int
usage(std::ostream& os, int status)
{
    os << "usage: detlint [--config FILE] [--json] [--list-rules] "
          "PATH...\n"
          "  --config FILE  load configs/detlint.toml-style config\n"
          "  --json         machine-readable findings on stdout\n"
          "  --list-rules   print the rule catalog and exit\n"
          "Scans .cpp/.hpp files (recursively for directories).\n"
          "Exit: 0 clean, 1 findings, 2 error.\n";
    return status;
}

/** @p status, or 2 when standard output could not be written. */
int
finish(int status)
{
    std::cout.flush();
    if (!std::cout) {
        std::cerr << "detlint: cannot write standard output\n";
        return 2;
    }
    return status;
}

}  // namespace

int
main(int argc, char** argv)
{
    using namespace artmem::detlint;

    Config config;
    bool json = false;
    std::vector<std::string> paths;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h") {
            return finish(usage(std::cout, 0));
        } else if (arg == "--list-rules") {
            for (const auto& rule : rule_catalog())
                std::cout << rule.id << "  " << rule.title << "\n      "
                          << rule.rationale << "\n";
            return finish(0);
        } else if (arg == "--json") {
            json = true;
        } else if (arg == "--config") {
            if (++i >= argc) {
                std::cerr << "detlint: --config needs a file\n";
                return 2;
            }
            std::string error;
            if (!load_config(argv[i], config, error)) {
                std::cerr << "detlint: " << error << "\n";
                return 2;
            }
        } else if (!arg.empty() && arg.front() == '-') {
            std::cerr << "detlint: unknown option " << arg << "\n";
            return usage(std::cerr, 2);
        } else {
            paths.push_back(arg);
        }
    }
    if (paths.empty()) {
        std::cerr << "detlint: no paths given\n";
        return usage(std::cerr, 2);
    }

    std::vector<std::string> errors;
    const std::vector<Finding> findings = lint_paths(paths, config, errors);
    for (const auto& error : errors)
        std::cerr << "detlint: " << error << "\n";

    if (json)
        write_json(std::cout, findings);
    else
        write_text(std::cout, findings);

    if (!errors.empty())
        return finish(2);
    return finish(findings.empty() ? 0 : 1);
}
