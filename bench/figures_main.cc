/**
 * @file
 * figures [name...] [--json FILE] [--list]: prints the named figures of
 * the registry (bench/figures.hh) in the order given, or all of them.
 * Their distinct cells run once, on DLVP_JOBS or every hardware thread.
 */

#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>

#include "bench/figures.hh"

int
main(int argc, char **argv)
{
    using namespace dlvp::bench;
    const std::vector<Figure> figs = registry();
    std::vector<const Figure *> selected;
    const char *json = nullptr;
    for (int i = 1; i < argc; ++i) {
        const auto it = std::find_if(figs.begin(), figs.end(), [&](auto &f) {
            return f.name == argv[i];
        });
        if (std::strcmp(argv[i], "--json") == 0 && i + 1 < argc) {
            json = argv[++i];
        } else if (std::strcmp(argv[i], "--list") == 0) {
            for (const Figure &f : figs)
                std::cout << f.name << "\n";
            return 0;
        } else if (it == figs.end()) {
            std::cerr << "unknown figure '" << argv[i] << "' (see --list)\n"
                      << "usage: figures [name...] [--json FILE] [--list]\n";
            return 2;
        } else if (std::count(selected.begin(), selected.end(), &*it) == 0) {
            selected.push_back(&*it);
        }
    }
    if (selected.empty())
        for (const Figure &f : figs)
            selected.push_back(&f);

    const FiguresRun run = runFigures(selected);
    for (const FigureRun &fr : run.figures)
        std::cout << fr.text;
    if (json != nullptr) {
        std::ofstream os(json);
        writeFiguresJson(os, run);
        if (!os) {
            std::cerr << "cannot write " << json << "\n";
            return 1;
        }
    }
    return 0;
}
