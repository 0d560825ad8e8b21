#include "admission.hh"

namespace prose {

AdmissionDecision
admit(const AdmissionSpec &spec, const Request &request, double now,
      std::uint64_t queued, double best_case_service)
{
    if (now + best_case_service > request.deadlineSeconds)
        return AdmissionDecision::ShedSelf;
    if (spec.maxQueueDepth > 0 && queued >= spec.maxQueueDepth)
        return AdmissionDecision::ShedOldest;
    return AdmissionDecision::Admit;
}

} // namespace prose
